"""TMR hardening case study (the paper's Section IV) on one application.

Hardens HotSpot with thread-level Triple Modular Redundancy via the
TMR harness — input triplication, per-launch copy execution, on-device
majority voting; ``CampaignSpec(harden="tmr")`` in campaigns — then
measures:

* the ~3x execution-time penalty,
* the SDC elimination under both AVF and SVF,
* the residual/shifted DUE vulnerability.

Run: ``python examples/hardening_study.py``
"""

from repro.arch import Structure, quadro_gv100_like, tesla_v100_like
from repro.fi import CampaignSpec, run_campaign
from repro.hardening import tmr_harness_factory
from repro.kernels import get_application
from repro.sim import GPU

APP = "hotspot"
KERNEL = "hotspot_k1"
TRIALS = 80


def cycles_of(app, harness_factory=None) -> int:
    gpu = GPU(quadro_gv100_like())
    harness = harness_factory() if harness_factory else None
    app.run(gpu, harness)
    return sum(rec.cycles for rec in gpu.launch_records)


def main() -> None:
    app = get_application(APP)

    plain_cycles = cycles_of(app)
    tmr_cycles = cycles_of(app, tmr_harness_factory)
    print(f"execution time: {plain_cycles} cycles -> {tmr_cycles} cycles "
          f"under TMR ({tmr_cycles / plain_cycles:.2f}x, paper: ~3x)")

    print(f"\n{'campaign':<28} {'masked':>7} {'sdc':>5} {'t/o':>5} {'due':>5}")
    base = CampaignSpec(level="uarch", app=app, kernel=KERNEL,
                        structure=Structure.RF, config=quadro_gv100_like(),
                        trials=TRIALS, seed=2)
    for harden, tag in ((None, "baseline"), ("tmr", "TMR")):
        uarch = run_campaign(base.derive(harden=harden))
        sw = run_campaign(base.derive(level="sw", structure=None,
                                      config=tesla_v100_like(),
                                      harden=harden))
        for name, result in ((f"AVF-RF {tag}", uarch), (f"SVF {tag}", sw)):
            c = result.counts
            print(f"{name:<28} {c.masked:>7} {c.sdc:>5} {c.timeout:>5} "
                  f"{c.due:>5}")

    print("\nExpected shape (paper insight #5): TMR slashes SDCs under both "
          "views, but DUEs persist or grow — and only the cross-layer AVF "
          "can see hardware faults that land after the vote.")


if __name__ == "__main__":
    main()
