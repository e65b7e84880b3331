"""The event engine, checked against a brute-force queue.

Random programs schedule events at times with ties and times before
``now`` (clamped to ``now``), cancel pending, cancelled and already-run
events, and may close the run's one unit of open work, which ends the
run. The model keeps every event in a flat list and rescans it for the
least ``(time, seq)``. The engine must run exactly the events the model
runs, in the same order at the same times, up to and including the event
that ends the run, and ``run_to_completion`` must return that event's
time.
"""

from hypothesis import given, settings, strategies as st

from icnsim.simnet import Network

MAX_EVENTS = 40
TIMES = st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.5, 4.0])
DELTAS = st.sampled_from([-3.0, -0.5, 0.0, 0.0, 0.5, 1.0, 2.5])
STOPS = st.sampled_from([False, False, False, True])
# What an event does when it runs: schedule a child at now + delta if the
# budget allows, cancel the event with this id if it exists by then, and
# close the run's open work if told to.
ACTIONS = st.lists(st.tuples(DELTAS, st.integers(0, MAX_EVENTS), STOPS),
                   min_size=1, max_size=MAX_EVENTS)
PROGRAMS = st.tuples(
    st.lists(TIMES, min_size=1, max_size=12),
    ACTIONS,
    st.lists(st.integers(0, MAX_EVENTS), max_size=4),   # cancelled before the run
)


class Model:
    """Every event ever scheduled, as [time, seq, state]."""

    def __init__(self):
        self.now = 0.0
        self.events: list[list] = []
        self.ended = False

    def schedule(self, at: float) -> int:
        self.events.append([max(at, self.now), len(self.events), "pending"])
        return len(self.events) - 1

    def cancel(self, eid: int):
        if self.events[eid][2] == "pending":
            self.events[eid][2] = "cancelled"

    def pop(self) -> int | None:
        due = [e for e in self.events if e[2] == "pending"]
        if not due or self.ended:
            return None
        e = min(due, key=lambda e: (e[0], e[1]))
        e[2] = "run"
        self.now = e[0]
        return e[1]


def play(program, engine: bool) -> list:
    initial, actions, cancels = program
    net = Network() if engine else None
    model = None if engine else Model()
    handles: list = []
    log: list = []

    def schedule(at: float):
        eid = len(handles)
        if engine:
            handles.append(net.schedule(at, lambda t, eid=eid: run(t, eid)))
        else:
            handles.append(model.schedule(at))

    def cancel(eid: int):
        if eid >= len(handles):
            return
        if engine:
            net.cancel(handles[eid])
        else:
            model.cancel(eid)

    def run(t: float, eid: int):
        delta, target, stop = actions[eid % len(actions)]
        if len(handles) < MAX_EVENTS:
            schedule(t + delta)
        cancel(target)
        if stop:
            if engine:
                net.close_work()
            else:
                model.ended = True
        log.append((eid, t))

    for at in initial:
        schedule(at)
    for eid in cancels:
        cancel(eid)
    if engine:
        net.open_work = 1
        log.append(("end", net.run_to_completion()))
        return log
    while (eid := model.pop()) is not None:
        run(model.now, eid)
    log.append(("end", model.now))
    return log


@settings(max_examples=400, deadline=None, derandomize=True)
@given(PROGRAMS)
def test_engine_matches_brute_force_queue(program):
    assert play(program, engine=True) == play(program, engine=False)


def test_cancelling_a_spent_event_keeps_pending_count():
    net = Network()
    seen = []
    spent = net.schedule(1.0, lambda t: None)
    net.schedule(2.0, lambda t: net.cancel(spent))
    net.schedule(5.0, seen.append)
    assert net.run_to_completion() == 5.0
    assert seen == [5.0]
