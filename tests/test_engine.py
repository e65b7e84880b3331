"""The event engine, checked against a brute-force queue.

Random programs schedule events at times with ties and times before
``now`` (clamped to ``now``), cancel pending, cancelled and already-run
events, and mix real and housekeeping events. The model keeps every event
in a flat list and rescans it for the least ``(time, seq)``. The engine
must run exactly the events the model runs, in the same order at the same
times, and ``active()`` must say whether the model has a real event
pending.
"""

from hypothesis import given, settings, strategies as st

from icnsim.simnet import Network

MAX_EVENTS = 40
TIMES = st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.5, 4.0])
DELTAS = st.sampled_from([-3.0, -0.5, 0.0, 0.0, 0.5, 1.0, 2.5])
# What an event does when it runs: schedule a child at now + delta (real
# or not) if the budget allows, and cancel the event with this id if it
# exists by then.
ACTIONS = st.lists(st.tuples(DELTAS, st.booleans(), st.integers(0, MAX_EVENTS)),
                   min_size=1, max_size=MAX_EVENTS)
PROGRAMS = st.tuples(
    st.lists(st.tuples(TIMES, st.booleans()), min_size=1, max_size=12),
    ACTIONS,
    st.lists(st.integers(0, MAX_EVENTS), max_size=4),   # cancelled before the run
)


class Model:
    """Every event ever scheduled, as [time, seq, real, state]."""

    def __init__(self):
        self.now = 0.0
        self.events: list[list] = []

    def schedule(self, at: float, real: bool) -> int:
        self.events.append([max(at, self.now), len(self.events), real, "pending"])
        return len(self.events) - 1

    def cancel(self, eid: int):
        if self.events[eid][3] == "pending":
            self.events[eid][3] = "cancelled"

    def pop(self) -> int | None:
        due = [e for e in self.events if e[3] == "pending"]
        if not due:
            return None
        e = min(due, key=lambda e: (e[0], e[1]))
        e[3] = "run"
        self.now = e[0]
        return e[1]

    def active(self) -> bool:
        return any(e[2] and e[3] == "pending" for e in self.events)


def play(program, engine: bool) -> list:
    initial, actions, cancels = program
    net = Network() if engine else None
    model = None if engine else Model()
    handles: list = []
    log: list = []

    def schedule(at: float, real: bool):
        eid = len(handles)
        if engine:
            handles.append(net.schedule(at, lambda t, eid=eid: run(t, eid), real=real))
        else:
            handles.append(model.schedule(at, real))

    def cancel(eid: int):
        if eid >= len(handles):
            return
        if engine:
            net.cancel(handles[eid])
        else:
            model.cancel(eid)

    def active() -> bool:
        return net.active() if engine else model.active()

    def run(t: float, eid: int):
        delta, real, target = actions[eid % len(actions)]
        if len(handles) < MAX_EVENTS:
            schedule(t + delta, real)
        cancel(target)
        log.append((eid, t, active()))

    for at, real in initial:
        schedule(at, real)
    for eid in cancels:
        cancel(eid)
    if engine:
        net.run_to_completion()
        log.append(("end", net.now, net.active()))
        return log
    while (eid := model.pop()) is not None:
        run(model.now, eid)
    log.append(("end", model.now, model.active()))
    return log


@settings(max_examples=400, deadline=None, derandomize=True)
@given(PROGRAMS)
def test_engine_matches_brute_force_queue(program):
    assert play(program, engine=True) == play(program, engine=False)


def test_cancelling_a_spent_event_keeps_pending_count():
    net = Network()
    seen = []
    spent = net.schedule(1.0, lambda t: None)

    def cancel_spent(t):
        net.cancel(spent)
        seen.append(net.active())

    net.schedule(2.0, cancel_spent)
    net.schedule(5.0, lambda t: None)
    net.run_to_completion()
    assert seen == [True]
