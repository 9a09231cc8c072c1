"""E12 — ablations: removing each load-bearing mechanism breaks the
property it carries.

The paper's Section 3.2 requirements are not decorative; DESIGN.md §6
promises to show each one earning its keep:

* **FIFO channels off** — requirement (2) ("messages broadcast by one
  of the nodes are processed at all other nodes in the same order as
  they were sent") dropped where it lives, in the channel: on a
  reordering network without the reliable transport's channel sequence
  numbers, replicas install a fragment's updates in arrival order and
  diverge — mutual consistency lost;
* **atomic installation off** — quasi-transactions applied write-by-
  write instead of as one atomic unit: readers observe partial effects
  — Property 2 lost;
* **read-lock leases off** — a Section 4.1 grant severed by a partition
  leaves a ghost lock at the agent's home node until the heal: the
  agent's own updates freeze, measured as a collapse in fold
  throughput during the partition.
"""

from conftest import run_once

from repro import FragmentedDatabase, ReadLocksStrategy, scripted_body
from repro.analysis.report import format_table
from repro.analysis.spectrum import SpectrumConfig, run_fragments_agents
from repro.cc.ops import Write
from repro.core.properties import check_property2
from repro.net import FaultPlan


def run_fifo_ablation(fifo):
    from repro import InstantMoveProtocol

    # Blind (arrival-order) installation isolates the channel: with
    # it, requirement 3.2-(2) is carried *only* by per-channel FIFO.
    # The channel genuinely reorders (jitter, no delivery-time floor);
    # the reliable transport's sequence numbers restore FIFO or don't.
    db = FragmentedDatabase(
        ["A", "B", "C"],
        movement=InstantMoveProtocol(),
        seed=1,
        faults=FaultPlan(jitter=5.0),
        reliable=fifo,
    )
    db.network.fifo_channels = False
    db.add_agent("ag", home_node="A")
    db.add_fragment("F", agent="ag", objects=["x"])
    db.load({"x": 0})
    db.finalize()

    def setx(value):
        def body(_ctx):
            yield Write("x", value)

        return body

    for i in range(10):
        db.sim.schedule_at(
            float(i),
            lambda i=i: db.submit_update("ag", setx(i), writes=["x"]),
        )
    db.quiesce()
    values = {name: node.store.read("x") for name, node in db.nodes.items()}
    return {
        "fifo channels": fifo,
        "mutually consistent": db.mutual_consistency().consistent,
        "fragmentwise": db.fragmentwise_serializability().ok,
        "final x per node": str(values),
    }


def run_atomicity_ablation(atomic):
    db = FragmentedDatabase(["A", "B"], action_delay=0.5)
    db.add_agent("ag", home_node="A")
    db.add_agent("reader", home_node="B")
    db.add_fragment("F", agent="ag", objects=["p", "q"])
    db.add_fragment("RO", agent="reader", objects=["dummy"])
    db.load({"p": 0, "q": 0, "dummy": 0})
    db.finalize()
    db.nodes["B"].atomic_installs = atomic

    def write_pair(value):
        def body(_ctx):
            yield Write("p", value)
            yield Write("q", value)

        return body

    for i in range(3):
        db.sim.schedule_at(
            i * 10.0,
            lambda i=i: db.submit_update(
                "ag", write_pair(i + 1), writes=["p", "q"]
            ),
        )
    for tick in range(1, 60):
        db.sim.schedule_at(
            tick * 0.6,
            lambda t=tick: db.submit_readonly(
                "reader",
                scripted_body([("r", "p"), ("r", "q")]),
                at="B",
                reads=["p", "q"],
                txn_id=f"R{t}",
            ),
        )
    db.quiesce()
    report = check_property2(db.recorder)
    return {
        "atomic installs": atomic,
        "Property 2 holds": report.ok,
        "torn reads observed": len(report.violations),
    }


def run_lease_ablation(with_lease):
    config = SpectrumConfig()
    strategy = ReadLocksStrategy(
        lock_timeout=config.lock_timeout,
        retry_interval=2.0,
        lock_lease=(None if with_lease else 1e9),
    )
    row = run_fragments_agents(config, strategy, "fa-read-locks",
                               view_mode="own")
    return {
        "lock leases": with_lease,
        "availability": row.availability,
        "denied": row.denied,
        "mutually consistent": row.mutually_consistent,
    }


def test_e12a_fifo_channel_ablation(benchmark, report):
    with_fifo, without = run_once(
        benchmark,
        lambda: (run_fifo_ablation(True), run_fifo_ablation(False)),
    )
    headers = list(with_fifo)
    report(
        format_table(
            headers,
            [[row[h] for h in headers] for row in (with_fifo, without)],
            title="E12a — ablation: per-channel FIFO (req. 3.2-2)",
        )
    )
    assert with_fifo["mutually consistent"]
    assert not without["mutually consistent"]


def test_e12b_atomic_install_ablation(benchmark, report):
    atomic, split = run_once(
        benchmark,
        lambda: (run_atomicity_ablation(True), run_atomicity_ablation(False)),
    )
    headers = list(atomic)
    report(
        format_table(
            headers,
            [[row[h] for h in headers] for row in (atomic, split)],
            title="E12b — ablation: atomic quasi-transaction installation "
                  "(Property 2)",
        )
    )
    assert atomic["Property 2 holds"]
    assert not split["Property 2 holds"]
    assert split["torn reads observed"] > 0


def test_e12c_lock_lease_ablation(benchmark, report):
    leased, unleased = run_once(
        benchmark, lambda: (run_lease_ablation(True), run_lease_ablation(False))
    )
    headers = list(leased)
    report(
        format_table(
            headers,
            [[row[h] for h in headers] for row in (leased, unleased)],
            title="E12c — ablation: Section 4.1 lock leases "
                  "(ghost locks freeze the agent until the heal)",
        )
    )
    # Without leases, grants trapped by the partition pin the hot
    # objects at the central node and more customer requests die.
    assert unleased["availability"] <= leased["availability"]
    assert leased["mutually consistent"]
    assert unleased["mutually consistent"]
