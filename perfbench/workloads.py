"""The benchmark's workloads: what each runs, and how its output is checked.

Importing this module imports nothing from ``repro``; the workload process
imports the layers it needs in :func:`setup`, which is what ``setup_s``
times.
"""

from __future__ import annotations

import hashlib
import json
import resource
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any

#: Pattern seed the stored digests in ``expected.json`` were taken at.
RECORDED_SEED = 0
#: Seed of the random DAGs; fixed so that a seed sweep measures run-to-run
#: spread rather than the 3x spread in work between different random DAGs.
CIRCUIT_SEED = 4
#: Sharded executor shape of ``sharded-rdag``.
SHARDS, WORKERS = 4, 2
#: Table-1 subset timed by ``table1-spice``: both defect polarities, a stage
#: whose NB entries are stuck (None delays), and a PMOS site whose delay
#: grows in one input sequence only.
TABLE1_NMOS_STAGES, TABLE1_NMOS_SITES = ("MBD3",), ("NA", "NB")
TABLE1_PMOS_STAGES, TABLE1_PMOS_SITES = ("MBD1",), ("PB",)
TABLE1_DT = 6e-12
#: Relative tolerance of the Table-1 delay check.
DELAY_RTOL = 1e-9

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "campaign", "sharded" or "table1"
    why: str
    model: str = ""
    circuit: str = ""
    pattern_count: int = 0
    engine: str = ""

    @property
    def is_campaign(self) -> bool:
        return self.kind != "table1"

    def describe(self) -> str:
        if self.kind == "table1":
            return (
                f"run_table1 NMOS {'/'.join(TABLE1_NMOS_STAGES)} at {'/'.join(TABLE1_NMOS_SITES)}"
                f" + PMOS {'/'.join(TABLE1_PMOS_STAGES)} at {'/'.join(TABLE1_PMOS_SITES)}, "
                f"dt={TABLE1_DT:g}"
            )
        shape = f" via ShardedCampaign(shards={SHARDS}, max_workers={WORKERS})"
        return (
            f"{self.model} on {self.circuit}, {self.pattern_count} random "
            f"{'pairs' if self.model == 'obd' else 'patterns'}, engine={self.engine}"
            + (shape if self.kind == "sharded" else "")
        )


#: The ``why`` texts of the workloads ``BENCHMARK.json`` lists are the ones there.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sa-rdag", "campaign",
            "stuck-at campaign on a random DAG: static learning (3 passes, about 70%) "
            "dominates, then PODEM search and fault simulation; compaction is idle",
            "stuck-at", f"rdag:200,{CIRCUIT_SEED}", 192, "packed",
        ),
        Workload(
            "sharded-rdag", "sharded",
            "the sa-rdag spec on 4 shards and 2 worker processes that relearn per shard; "
            "must reproduce sa-rdag's result bit for bit",
            "stuck-at", f"rdag:200,{CIRCUIT_SEED}", 192, "packed",
        ),
        Workload(
            "obd-rdag", "campaign",
            "the paper's OBD campaign: about 90% of the time is the legacy two-rail search; "
            "learning, compaction and SPICE are idle",
            "obd", f"rdag:60,{CIRCUIT_SEED}", 256, "packed",
        ),
        Workload(
            "nodrop-mult", "campaign",
            "no-drop stuck-at on a multiplier, numpy engine: compaction, report merging and "
            "pattern generation dominate; ATPG makes 0 attempts",
            "stuck-at", "mult:6", 8192, "numpy",
        ),
        Workload(
            "table1-spice", "table1",
            "the paper's Table-1 transistor-level characterization, the only user of the "
            "SPICE layer; no logic layer runs",
        ),
    )
}

#: Backend a non-recorded seed is cross-checked against.
OTHER_ENGINE = {"packed": "numpy", "numpy": "packed"}


def setup(workload: Workload) -> Any:
    """Import the workload's layers and build its circuit or technology."""
    if workload.is_campaign:
        from repro.campaign import resolve_circuit

        return resolve_circuit(workload.circuit)
    from repro.cells.technology import default_technology
    from repro.experiments import run_table1  # noqa: F401  (the timed layer)

    return default_technology()


def campaign_spec(workload: Workload, seed: int, engine: str | None = None):
    from repro.campaign import CampaignSpec

    return CampaignSpec(
        model=workload.model,
        circuit=workload.circuit,
        pattern_source="random",
        pattern_count=workload.pattern_count,
        seed=seed,
        engine=engine or workload.engine,
    )


class WorkerMemory:
    """Peak RSS of the sharded executor's worker processes.

    :meth:`pool_class` returns a ``ProcessPoolExecutor`` that sums its
    workers' ``VmHWM`` just before shutting them down (Linux ``/proc``; 0
    where that is unavailable).
    """

    def __init__(self) -> None:
        self.peak_kb = 0

    def pool_class(self) -> type:
        memory = self

        class MeteredPool(ProcessPoolExecutor):
            def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
                pids = list(getattr(self, "_processes", None) or ())
                memory.peak_kb = max(memory.peak_kb, sum(_vm_hwm_kb(pid) for pid in pids))
                super().shutdown(wait=wait, cancel_futures=cancel_futures)

        return MeteredPool


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_once(workload: Workload, seed: int) -> Any:
    """One repetition, from the circuit reference string to the result.

    The circuit is resolved afresh each time, so per-circuit caches keyed on
    the circuit object (ATPG learning contexts) start cold every repetition.
    """
    if workload.kind == "table1":
        from repro.core import BreakdownStage
        from repro.experiments import run_table1

        return run_table1(
            nmos_stages=[BreakdownStage[s] for s in TABLE1_NMOS_STAGES],
            pmos_stages=[BreakdownStage[s] for s in TABLE1_PMOS_STAGES],
            nmos_sites=TABLE1_NMOS_SITES,
            pmos_sites=TABLE1_PMOS_SITES,
            dt=TABLE1_DT,
        )
    spec = campaign_spec(workload, seed)
    if workload.kind == "sharded":
        from repro.campaign import ShardedCampaign

        return ShardedCampaign(spec, shards=SHARDS, max_workers=WORKERS).run()
    from repro.campaign import Campaign

    return Campaign(spec).run()


def digest(result: Any, engine: str | None = None) -> str:
    """sha256 of ``as_dict(include_runtime=False)``.

    *engine* overrides the spec's engine field, so results of the two word
    backends, which must agree in everything else, can be compared.
    """
    payload = result.as_dict(include_runtime=False)
    if engine is not None:
        payload["spec"]["engine"] = engine
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def table1_delays(result: Any) -> dict[str, float | None]:
    """Measured delay of every entry, keyed ``polarity/stage/sequence/site``."""
    delays = {}
    for polarity, table in (("nmos", result.nmos), ("pmos", result.pmos)):
        for stage, per_seq in table.items():
            for sequence, per_site in per_seq.items():
                for site, entry in per_site.items():
                    key = f"{polarity}/{stage.value}/{sequence}/{site}"
                    delays[key] = entry.measurement.delay
    return delays


def delays_match(measured: dict, stored: dict) -> bool:
    if measured.keys() != stored.keys():
        return False
    for key, value in measured.items():
        want = stored[key]
        if (value is None) != (want is None):
            return False
        if value is not None and abs(value - want) > DELAY_RTOL * abs(want):
            return False
    return True


def work_items(workload: Workload, result: Any) -> int:
    """Faults in the collapsed universe, or Table-1 entries measured."""
    if workload.is_campaign:
        return len(result.faults)
    return len(table1_delays(result))


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def peak_rss_kb() -> int:
    """Peak RSS of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
