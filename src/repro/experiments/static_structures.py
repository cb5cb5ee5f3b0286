"""Static SMEM estimates vs campaign AVFs: rank agreement.

The RF estimator's validation move (:mod:`repro.experiments.static_vf`)
extended to shared memory: ``static_structure_report`` predicts each
kernel's AVF-SMEM as ``SMEM ACE x SMEM derating``, where the ACE fraction
comes from store-to-last-load live intervals over the abstract
interpreter's value sets (zero injections) and the derating from the
launch geometry. Compared against the cached SMEM storage-target
campaigns, it asks the predictor question: does the static estimate
*rank* the applications the way fault injection does?
"""

from __future__ import annotations

from repro.analysis.trends import compare_trends, spearman
from repro.arch.config import quadro_gv100_like
from repro.arch.structures import Structure
from repro.experiments.common import APP_ORDER, app_label, collect_suite
from repro.fi import avf_of_structure
from repro.kernels import kernel_programs
from repro.staticanalysis import static_structure_report
from repro.staticanalysis.launches import suite_launch_contexts
from repro.utils.stats import weighted_mean


def data(trials: int | None = None):
    """(static_estimate, campaign_avf) of AVF-SMEM per application."""
    suite = collect_suite(hardened=False, trials=trials, with_ld=False)
    programs = kernel_programs()
    config = quadro_gv100_like()
    contexts = suite_launch_contexts()

    static: dict[str, float] = {}
    campaign: dict[str, float] = {}
    for app in APP_ORDER:
        items = {
            kernel: d for (a, kernel), d in suite.kernels.items() if a == app
        }
        if not items:
            continue
        weights = [max(d.cycles, 1) for d in items.values()]
        static[app] = weighted_mean(
            [static_structure_report(programs[(app, k)], contexts[(app, k)],
                                     config).avf_smem for k in items],
            weights)
        campaign[app] = weighted_mean(
            [avf_of_structure(d.uarch[Structure.SMEM]).total
             for d in items.values()], weights)
    return static, campaign


def run(trials: int | None = None) -> str:
    s, c = data(trials)
    lines = ["== Static SMEM estimates vs campaign AVF-SMEM ==",
             f"{'app':<12} {'static est':>10} {'campaign':>10}"]
    for app in s:
        lines.append(f"{app_label(app):<12} {s[app]:>10.4%} {c[app]:>10.4%}")
    rho = spearman(s, c)
    cmp = compare_trends(s, c)
    lines.append(
        f"Spearman rank correlation: {rho:+.3f} over {len(s)} apps; "
        f"pairwise trends: {cmp.consistent} consistent / "
        f"{cmp.opposite} opposite")
    lines.append(
        "static side: 0 injections (abstract interpretation + CFG weights); "
        "campaign side: SMEM storage-target FI")
    return "\n".join(lines)


if __name__ == "__main__":
    print(run())
