"""The paper's three claims, as metamorphic relations on the mini scenario.

Each relation compares runs of ``icn`` (the integrated ICN/CDN slice)
with ``cdn-only`` (the plain CDN baseline), or runs that differ in one
scenario value:

- scalability: more requests for one content add no origin traffic in
  ``icn``, while the CDN origin's traffic grows with the request count;
- reliability: once the CDN slice ends, ``icn`` still serves every
  request from its caches, while every later ``cdn-only`` request fails;
- QoS: ``icn`` delivers faster than ``cdn-only`` at the median.
"""

from functools import lru_cache

from icnsim.harness import run_scenario
from icnsim.metrics import region_stats

from conftest import MINI


@lru_cache(maxsize=None)
def run(mode: str, *sets: str):
    return run_scenario(MINI, None, ["mode=%s" % mode, *sets])


def requests(n: int) -> str:
    return "populations.0.request_count=%d" % n


def test_scalability_icn_origin_traffic_is_flat_and_cdn_grows_linearly():
    for n in (6, 24):
        icn = run("icn", requests(n))
        assert [r.status for r in icn.records] == ["ok"] * n
        assert icn.origin_fetch_total() == 1
        assert icn.hosts["gw"].counters.rx_bytes == 16532
    small = run("cdn-only", requests(6)).hosts["origin-node"].counters.tx_bytes
    large = run("cdn-only", requests(24)).hosts["origin-node"].counters.tx_bytes
    assert (small, large) == (98_304, 4 * 98_304)


def test_reliability_icn_outlives_the_cdn_slice():
    ends_at = 200.0
    sets = ("northbound.0.duration_ms=%d" % ends_at, requests(40))
    icn = run("icn", *sets)
    assert [r.status for r in icn.records] == ["ok"] * 40
    cdn = run("cdn-only", *sets)
    assert len(cdn.records) == 40
    assert any(r.status == "ok" for r in cdn.records if r.t_issue_ms < ends_at)
    assert all(r.status == "failed" for r in cdn.records if r.t_issue_ms >= ends_at)


def test_qos_icn_median_delivery_beats_cdn():
    icn = region_stats(run("icn", requests(6)).records)["EU"]["median_ms"]
    cdn = region_stats(run("cdn-only", requests(6)).records)["EU"]["median_ms"]
    assert icn < cdn  # 11.33 against 24.06 ms
