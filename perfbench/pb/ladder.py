"""The ascending rate ladder behind `max_rps_slo1ms`.

A rung passes when all of these hold:
  * p99 <= 1 ms in at least half of the rung's windows (the median of their
    p99s), so a scheduler hiccup in a few windows cannot decide the rung;
  * achieved rps >= 99% of offered rps;
  * no errors, abandoned requests or failed connections.
The first pass climbs from the first rung above `heavy` until two rungs in a
row fail. The second pass measures the rungs from the top one reached back
down to just below the best pass again, later in time, and each rung is
judged on both passes' windows. The answer is the highest rate that passed,
counting the fixed `light` and `heavy` rates as rungs below the ladder, so
neither one noisy rung nor a few noisy seconds of the host decide it.

A rung offered above 90% of the generator's ceiling (measured at the same
paced rates against an empty server) stops the ladder, is flagged, and is
never counted, so the result cannot be the generator's ceiling instead of the
system's."""

from dataclasses import dataclass, field

SLO_P99_US = 1000.0
MIN_ACHIEVED_FRAC = 0.99
GENERATOR_BUSY_LIMIT = 0.90
PATIENCE = 2  # consecutive failing rungs that end the climb


@dataclass
class Rung:
    rate: float
    p99_us: float
    achieved_frac: float
    failures: int
    generator_busy: float
    passed: bool = False
    reason: str = ""


@dataclass
class LadderResult:
    max_rps: float        # 0 when not even the floors met the SLO
    rungs: list = field(default_factory=list)
    generator_bound: bool = False  # stopped by the generator guard
    capped: bool = False           # every rung passed; the top is a floor


def rung_rates(heavy, step, count):
    """`count` geometric rungs strictly above `heavy`, rounded to whole rps."""
    return [round(heavy * step ** i) for i in range(1, count + 1)]


def highest_passing(rates, passes):
    """The highest of ascending `rates` for which `passes(rate)` holds,
    assuming a rate passes whenever a higher one does: the top rate is tried
    first, then bisection. 0 when none passes."""
    if passes(rates[-1]):
        return rates[-1]
    lo, hi = -1, len(rates) - 1  # rates[hi] fails; rates[lo] passes
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(rates[mid]):
            lo = mid
        else:
            hi = mid
    return rates[lo] if lo >= 0 else 0


def judge(rung):
    """Fills rung.passed / rung.reason; returns the rung."""
    if rung.generator_busy > GENERATOR_BUSY_LIMIT:
        rung.reason = "generator"
    elif rung.failures > 0:
        rung.reason = "failures"
    elif rung.achieved_frac < MIN_ACHIEVED_FRAC:
        rung.reason = "throughput"
    elif rung.p99_us > SLO_P99_US:
        rung.reason = "p99"
    else:
        rung.reason = "ok"
    rung.passed = rung.reason == "ok"
    return rung


def search(floors, rates, measure):
    """Runs both passes and returns a LadderResult.

    `measure(rate)` measures more windows at `rate` and returns the Rung
    judged on every window measured at that rate so far. `floors` are the
    already-measured Rungs at the fixed rates below the ladder.
    """
    result = LadderResult(max_rps=max(
        [f.rate for f in floors if judge(f).passed], default=0.0))
    rungs = {}
    failed_in_a_row = 0
    for rate in rates:
        rung = rungs[rate] = judge(measure(rate))
        if rung.reason == "generator":
            break
        failed_in_a_row = 0 if rung.passed else failed_in_a_row + 1
        if failed_in_a_row >= PATIENCE:
            break
    reached = list(rungs)
    passed = [i for i, r in enumerate(reached) if rungs[r].passed]
    low = max(passed[-1] - 1, 0) if passed else 0
    if rungs[reached[-1]].reason != "generator":
        for rate in reversed(reached[low:]):
            rungs[rate] = judge(measure(rate))
            if rungs[rate].reason == "generator":
                break
    for rate in reached:
        rung = rungs[rate]
        result.rungs.append(rung)
        if rung.reason == "generator":
            result.generator_bound = True
            break
        if rung.passed:
            result.max_rps = max(result.max_rps, rung.rate)
    result.capped = (len(reached) == len(rates) and
                     all(rungs[r].passed for r in reached))
    return result
