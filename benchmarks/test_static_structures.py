"""Static SMEM estimates vs injection campaigns: rank agreement.

Companion to :mod:`benchmarks.test_static_vf` for shared memory.  The
acceptance gate: the zero-injection store-to-last-load estimate must rank
the applications the way the SMEM storage-target campaigns do (Spearman
>= +0.6).
"""

from repro.analysis.trends import compare_trends, spearman
from repro.experiments.static_structures import data


def test_static_smem_estimate_tracks_campaign(once):
    s, c = once(data)
    rho = spearman(s, c)
    cmp = compare_trends(s, c)
    print(f"\nstatic-vs-campaign [smem]: Spearman {rho:+.3f} over "
          f"{len(s)} apps; {cmp.consistent} consistent / "
          f"{cmp.opposite} opposite pairs")
    for app in sorted(s, key=s.get):
        print(f"  {app:<12} static {s[app]:.4%}  campaign {c[app]:.4%}")
    assert len(s) == len(c) >= 5
    # Acceptance criterion: the static ranking must agree strongly with
    # the storage-target campaigns.
    assert rho >= 0.6
    assert cmp.consistent > cmp.opposite
