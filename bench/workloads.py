"""The benchmark's workloads: experiment configs and their reference outputs.

All three use H = 0.7 and n = 512 (m = 32 for q = 2) so that they share
grid sizes with the tables in ROADMAP.md, and each stresses a different
layer (see README.md in this directory for the reasons and the layer map).
Replication counts are sized so that one experiment takes about one second
on one thread, which lets a run repeat it often enough for steady medians.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 20250810


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    config: dict
    # untimed warm-up size: fills the lazy caches for the same grid sizes
    warmup: dict
    # sha256 of <kind>.csv and the printed band lines for DEFAULT_SEED,
    # recorded with `hermite-ou experiment` on the seed commit
    csv_sha256: str
    bands: tuple

    def config_text(self, overrides: dict | None = None) -> str:
        fields = {"kind": self.kind, **self.config, **(overrides or {})}
        return "".join(f"{key} = {value}\n" for key, value in fields.items())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="consistency-fbm",
            kind="consistency",
            config={
                "q": 1,
                "H": 0.7,
                "n": 512,
                "generator": "fbm",
                "eps": "0.5,0.2,0.1,0.05",
                "delta": 0.5,
                "replications": 50,
            },
            warmup={"replications": 2},
            csv_sha256="668bfabc6d810e5c3f6513a5d2f8d56a2762d6c4fd7bf31934b08297aec6287a",
            bands=(
                'band p-monotone-in-eps(delta=0.5): PASS (4 eps values)',
                'band p-below-bound(delta=0.5): PASS (1 rows passed the threshold check)',
            ),
        ),
        Workload(
            name="maximal-rosenblatt",
            kind="maximal",
            config={
                "q": 2,
                "H": 0.7,
                "n": 512,
                "m": 32,
                "generator": "partial-sum",
                "T": "1,2,4",
                "p": "1,2",
                "replications": 20,
            },
            warmup={"replications": 2},
            csv_sha256="cffdd302903e744db90c96dbc953110088b5c38abaca9529e2e342a78b03f194",
            bands=(
                'band scaling-ratio-spread(p=1): FAIL (spread=0.3730 (<0.10))',
                'band scaling-ratio-spread(p=2): FAIL (spread=0.9456 (<0.10))',
            ),
        ),
        Workload(
            name="limit-rosenblatt",
            kind="limit-dist",
            config={
                "q": 2,
                "H": 0.7,
                "n": 512,
                "m": 32,
                "generator": "partial-sum",
                "eps": "0.2,0.1,0.05",
                "replications": 20,
                "ks_samples": 50,
            },
            warmup={"replications": 2, "ks_samples": 2},
            csv_sha256="917f2d95ccca2f9647f2d0094be03fa25f21e252cfcd5e7235ead5262d162c83",
            bands=(
                'band paired-gap-decreasing-in-eps: PASS (medians 0.006185@0.05, 0.009981@0.1, 0.02085@0.2)',
                'band ks-not-rejected(level 0.01): PASS (p-values 0.388, 0.388, 0.388)',
            ),
        ),
    )
}
