"""Campaign identity: the one rule behind cache keys, seed tags and meta.

A campaign's *identity* is every field that determines its result. One
function, :func:`campaign_identity`, writes it; the campaign pipeline
(:mod:`repro.fi.campaign`) hashes it into the cache key and derives the
seed-stream tag, the journal ``meta`` extras and the telemetry event tags
from it, and the run ledger (:mod:`repro.store.ledger`) rebuilds the tag
and family fingerprint of a cached payload with the same function. The
module imports nothing from :mod:`repro.fi` or :mod:`repro.sim`, so the
store can use it without loading the simulator.

The rule has two tiers:

* **legacy fields** are always present, exactly as the level wrote them
  before any newer axis existed: ``hardened`` (every level but ``src``)
  and ``structure``/``num_bits``/``ecc`` (``uarch``);
* **newer axes** (:data:`AXIS_DEFAULTS`) enter only when set off their
  default, so identities that predate an axis keep their exact shape —
  and with it their cache keys and seed streams.

``hardened`` is no longer a campaign knob (hardening is the ``harden``
axis); campaigns always write ``False``, which keeps every unhardened key
byte-identical. Only payloads cached by older builds can carry ``True``,
and the ledger passes that through so their tags still match their
journals.
"""

from __future__ import annotations

from repro.config import DEFAULT_HANG_FACTOR

__all__ = [
    "AXIS_DEFAULTS", "FAULT_AXES", "campaign_identity", "identity_extras",
    "identity_tag",
]

#: Newer identity axes and their defaults, in the order they label a
#: campaign. An axis enters an identity only when set (not ``None``) and
#: off its default. ``hang_factor`` (``REPRO_HANG_FACTOR``, the trial
#: watchdog's headroom) changes which trials time out, so it keys the
#: cache; it labels nothing, so seed tags and journal meta never hold it.
AXIS_DEFAULTS: dict[str, object] = {
    "sdc_anatomy": False,
    "fault_model": "transient",
    "target": "storage",
    "harden": None,
    "stop_rule": None,
    "hang_factor": DEFAULT_HANG_FACTOR,
}

#: The fault-model axes label a campaign as a pair: tags, journal meta
#: and telemetry carry both as soon as either is off its default.
FAULT_AXES = ("fault_model", "target")

#: Identity fields that make up the seed tag, in tag order (absent ones
#: are skipped), before the labelling extras.
_TAG_FIELDS = ("app", "kernel", "kind", "structure", "config", "hardened")


def campaign_identity(kind: str, app: str, kernel: str, config: str, *,
                      structure: str | None = None, hardened: bool = False,
                      num_bits: int = 1, ecc: bool = False,
                      **axes) -> dict:
    """The identity fields of one campaign (seed and trial count aside).

    ``kind`` is the injector label (``uarch``, ``sw``, ``sw-ld``,
    ``sw-src-transient``, ``sw-src-sticky``); ``structure=None`` on a
    ``uarch`` campaign means the control target. ``axes`` are the newer
    axes of :data:`AXIS_DEFAULTS` (``stop_rule`` as its identity
    payload); unknown names are a ``TypeError``.
    """
    unknown = set(axes) - set(AXIS_DEFAULTS)
    if unknown:
        raise TypeError(f"unknown identity axes: {', '.join(sorted(unknown))}")
    identity: dict = {"kind": kind, "app": app, "kernel": kernel,
                      "config": config}
    if kind == "uarch":
        identity.update(structure=structure or "control", hardened=hardened,
                        num_bits=num_bits, ecc=ecc)
    elif not kind.startswith("sw-src"):
        identity["hardened"] = hardened
    for name, default in AXIS_DEFAULTS.items():
        value = axes.get(name)
        if value is not None and value != default:
            identity[name] = value
    return identity


def identity_extras(identity: dict, axes=(*FAULT_AXES, "harden")) -> dict:
    """The labelling axes of ``identity`` that are set, restricted to
    ``axes``: the journal ``meta`` extras by default, the telemetry event
    tags with ``axes=FAULT_AXES``. The fault axes come as a pair."""
    extras = {}
    if any(name in identity for name in FAULT_AXES):
        extras.update((name, identity.get(name, AXIS_DEFAULTS[name]))
                      for name in FAULT_AXES)
    if "harden" in identity:
        extras["harden"] = identity["harden"]
    return {name: value for name, value in extras.items() if name in axes}


def identity_tag(identity: dict) -> str:
    """The seed-stream tag: ``app/kernel/kind[/structure]/config
    [/hardened]`` plus the set labelling axes (fault model and target,
    then the hardening scheme)."""
    parts = [identity[name] for name in _TAG_FIELDS if name in identity]
    parts += identity_extras(identity).values()
    return "/".join(str(part) for part in parts)
