"""Seeded end-to-end and per-layer benchmark of the ppt deciders.

    python3 perfbench/run.py --workload scalar_big --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src. The
workload's inputs are generated from --seed (see workloads.py), labelled
with sympy.isprime, and then decided by the four entries of
ppt.algorithms.ALGORITHMS in closed-loop passes (one call at a time, inputs
in a seeded shuffled order) for about --seconds seconds; the number of
passes follows from --seconds and the workload (see PASS_S). Every verdict
is compared with the label and every distinct certificate is JSON
round-tripped and verified; a failing input is listed, counted, and never
dropped.

--trace 0 reports the end-to-end metrics, from untraced passes; each
call's time is normalised to the reference speed of the calibration
kernel (calibrate.py) read just before it, t * calibrate.REF_S / c (the
yardstick, and scalar_big's calls, against the kernel's pow part; see
POW_CALLS), and each call's figure is the median of that over the
passes. The raw times (each call's fastest pass) are printed too.
--trace 1 makes one pass in which every input is decided untraced and
then traced, back to back, reports the per-layer metrics (trace.overhead_frac compares the two
rounds), and writes every span to perfbench/out/trace-<workload>-<seed>.jsonl.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from scipy.stats.mstats import hdquantiles

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

DECIDERS = ("eqnr", "inr_pgpc", "inr_fgpc", "enhanced_mr")
SETUP_RUNS = 7
# A kernel reading stands for the host's speed over the calls timed up to
# CAL_EVERY_S after it; the host holds one speed for a few hundred ms.
CAL_EVERY_S = 0.02
# Workloads whose calls are almost all builtin big-integer pow (a decider
# costs about three Fermat tests in scalar_big), read against the kernel's
# pow part: the host slows interpreted code more than builtin pow.
POW_CALLS = {"scalar_big"}
# Seconds one pass takes on a 2-vCPU KVM Xeon (2.1 GHz). A run of --seconds
# makes seconds // PASS_S passes (at least one), so that the parent and the
# change of a comparison take the same number of samples per input; it stops
# early only on a machine so slow that the next pass would end after
# CAP x --seconds.
PASS_S = {"scalar_big": 15.0, "battery_1mod24": 10.0, "small_many": 2.3}
CAP = 1.2
PGPC_MS = (5, 7, 9, 11, 13, 16, 17)
BRANCHES = ("q2", "q3", "qn2", "qscan", "qrand")

# Import ppt, canonical_params for the workload's m values, and the probe
# primes of its deepest non-residue scan, in a fresh interpreter; then the
# fastest of a few calibration readings.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ppt
for m in json.loads(sys.argv[2]):
    ppt.canonical_params(m)
if int(sys.argv[3]):
    ppt.find_qnr(int(sys.argv[3]))
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[4])
import calibrate
print(t1 - t0, min(calibrate.reading()[0] for _ in range(20)))
"""


def import_library():
    """Import ppt from ./src, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import ppt

    if not Path(ppt.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ppt imported from {ppt.__file__}, not {SRC}")
    return ppt


# ------------------------------------------------------------------ timing


@dataclass
class PassTimes:
    """Seconds per call of one pass, indexed by input position.

    cal holds the kernel reading (whole, pow part) taken before each
    untraced call, keyed by (input, "yard"), (input, decider) and
    (input, "verify", k).
    """

    decide: dict[int, list[float]] = field(default_factory=dict)
    yard: dict[int, float] = field(default_factory=dict)
    verify: dict[int, list[float]] = field(default_factory=dict)
    cal: dict[tuple, tuple[float, float]] = field(default_factory=dict)
    seconds: float = 0.0


class Runner:
    """Decides a workload's inputs pass after pass and checks every verdict."""

    def __init__(self, ppt, work):
        self.ppt = ppt
        self.items = work.items
        self.fns = [ppt.ALGORITHMS[d] for d in DECIDERS]
        self.failures: dict[tuple[int, str], str] = {}
        self._cal_s = (math.inf, math.inf)
        self._cal_at = -math.inf

    def _check(self, i: int, d: str, verdict, err) -> None:
        Outcome = self.ppt.Outcome
        want = Outcome.PRIME if self.items[i].prime else Outcome.COMPOSITE
        if err is not None:
            why = f"raised {type(err).__name__}: {err}"
        elif verdict.outcome is not want:
            why = f"verdict {verdict.outcome.value}, oracle {want.value}"
        else:
            return
        self.failures.setdefault((i, d), why)

    def run_pass(self, order) -> PassTimes:
        """One closed-loop, untraced pass over the inputs in `order`."""
        out = PassTimes()
        t_pass = time.perf_counter()
        for i in order:
            self._decide(i, out)
        out.seconds = time.perf_counter() - t_pass
        return out

    def traced_pass(self, order, tracer) -> tuple[PassTimes, PassTimes]:
        """Each input untraced and then traced, back to back.

        Both rounds of an input see the same machine state, so the ratio of
        their totals is the tracing overhead. Returns (untraced, traced).
        """
        plain, traced = PassTimes(), PassTimes()
        replays: dict[tuple[int, int, bool, str], float] = {}
        for i in order:
            self._decide(i, plain, read=False)
            with tracer.installed():
                self._decide(i, traced, tracer, replays)
        return plain, traced

    def _reading(self) -> tuple[float, float]:
        """The latest calibration reading, taken anew once CAL_EVERY_S old."""
        if time.perf_counter() - self._cal_at > CAL_EVERY_S:
            self._cal_s = calibrate.reading()
            self._cal_at = time.perf_counter()
        return self._cal_s

    def _decide(self, i: int, out: PassTimes, tracer=None, replays=None, read=True) -> None:
        """Yardstick, the four deciders, then every distinct certificate of input i.

        With a tracer every call is a root span of its own call id, and the
        scalar tail of each verdict is replayed outside the decider's span.
        Without read no kernel reading is taken (the traced pass compares
        its two rounds raw, and a reading slows the call after it a little).
        """
        reading = self._reading if read else lambda: (math.nan, math.nan)
        certificate, verify_certificate = self.ppt.certificate, self.ppt.verify_certificate
        clock = time.perf_counter
        n = self.items[i].n
        if tracer is None:
            out.cal[i, "yard"] = reading()
            t0 = clock()
            pow(2, n - 1, n)
            out.yard[i] = clock() - t0
        else:
            tracer.new_call()
            with tracer.span("yardstick.fermat") as sp:
                pow(2, n - 1, n)
            out.yard[i] = sp.seconds
        times, verdicts = [], []
        for d, fn in zip(DECIDERS, self.fns):
            verdict = err = None
            if tracer is None:
                out.cal[i, d] = reading()
                t0 = clock()
                try:
                    verdict = fn(n)
                except Exception as exc:  # a raising decider is a failed decision
                    err = exc
                times.append(clock() - t0)
            else:
                tracer.new_call()
                try:
                    with tracer.span(f"algorithms.{d}") as sp:
                        verdict = fn(n)
                except Exception as exc:
                    err = exc
                times.append(sp.seconds)
                if verdict is not None:
                    sp.info = replay_tail(tracer, d, verdict, replays)
            self._check(i, d, verdict, err)
            verdicts.append((d, verdict))
        out.decide[i] = times

        claims: dict[tuple, list] = {}
        for d, v in verdicts:
            if v is not None:
                claims.setdefault((v.outcome, v.mechanism, v.prime_basis), []).append((d, v))
        vtimes = []
        for group in claims.values():
            v = group[0][1]
            if tracer is None:
                out.cal[i, "verify", len(vtimes)] = reading()
                t0 = clock()
                ok = verify_certificate(json.loads(json.dumps(certificate(v))))
                vtimes.append(clock() - t0)
            else:
                tracer.new_call()
                with tracer.span("verify") as sp:
                    with tracer.span("algorithms.certificate"):
                        text = json.dumps(certificate(v))
                    with tracer.span("algorithms.verify_certificate"):
                        ok = verify_certificate(json.loads(text))
                vtimes.append(sp.seconds)
            if not ok:
                for d, _ in group:
                    self.failures.setdefault((i, d), "certificate did not verify")
        out.verify[i] = vtimes

    def measure(self, planned: int, cap_s: float, rng: random.Random) -> list[PassTimes]:
        """`planned` whole passes, fewer only if the next would end after cap_s."""
        passes = []
        start = time.perf_counter()
        while len(passes) < planned:
            order = list(range(len(self.items)))
            rng.shuffle(order)
            passes.append(self.run_pass(order))
            if time.perf_counter() - start + passes[-1].seconds > cap_s:
                break
        return passes


def tail_of(d: str, verdict):
    """(q, binomial reached, q branch) of the scalar tail a verdict went through."""
    from ppt.algorithms import BinomialWitness, EulerWitness

    mech, basis = verdict.mechanism, verdict.prime_basis
    if isinstance(mech, EulerWitness):
        q, both = mech.q, False
    elif isinstance(mech, BinomialWitness) and mech.q is not None:
        q, both = mech.q, True
    elif basis is not None and basis.kind == "pbpc":
        q, both = basis.q, True
    else:
        return None
    if verdict.qnr_search.needed:
        branch = "qrand" if d == "enhanced_mr" else "qscan"
    else:
        branch = {2: "q2", 3: "q3", verdict.n - 2: "qn2"}[q]
    return q, both, branch


def replay_tail(tracer, d, verdict, replays) -> dict | None:
    """Time checks.ecc and checks.bcc at the verdict's q, once per q branch and n.

    The deciders' scalar tail calls builtin pow and the private
    _pow_one_plus_root, so its cost is estimated by replaying the public
    checks: ecc when only the Euler criterion ran, bcc when the binomial
    congruence ran too.
    """
    from ppt.checks import bcc, ecc

    tail = tail_of(d, verdict)
    if tail is None:
        return None
    q, both, branch = tail
    n = verdict.n
    key = (q, n, both, branch)
    if key not in replays:
        with tracer.span("checks.ecc", {"replay": branch}) as sp:
            ecc(q, n)
        replays[key] = sp.seconds
        if both:
            with tracer.span("checks.bcc", {"replay": branch, "ecc_s": sp.seconds}) as sp:
                bcc(q, n)
            replays[key] = sp.seconds
    return {"tail_s": replays[key], "branch": branch}


def measure_setup(work) -> tuple[float, float]:
    """Median of SETUP_RUNS cold set-ups, each in its own interpreter, raw and normalised."""
    args = [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(list(work.m_values))]
    args += [str(work.deep_n), str(Path(__file__).resolve().parent)]
    raw, norm = [], []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(args, capture_output=True, text=True, check=True, timeout=120)
        setup_s, cal_s = map(float, done.stdout.split()[-2:])
        raw.append(setup_s)
        norm.append(setup_s * calibrate.REF_S / cal_s)
    return statistics.median(raw), statistics.median(norm)


# ----------------------------------------------------------------- metrics


def percentile(values, q: int) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A beta-weighted mean of all order statistics, centred on rank q% with a
    spread of about sqrt(q(100-q)/n)%. Where the workload's input classes
    leave a gap in cost next to the percentile's rank, one noisy sample
    crossing the gap moves this estimate a little, not by the whole gap.
    """
    return float(hdquantiles(values, prob=[q / 100])[0])


def per_input_times(passes: list[PassTimes], normalise: bool = True, pow_calls: bool = False):
    """Each call's time over the passes as one figure; each input weighs one.

    With normalise, each pass's time is scaled by the reference over the
    kernel reading taken just before it, which the host slows along with
    the call, and the figure is the median over the passes: the yardstick,
    and with pow_calls every call, against the kernel's pow part, the rest
    against the whole kernel. Without, it is the fastest pass: the raw time
    least slowed by the neighbours.
    """

    def figure(key, times) -> float:
        if not normalise:
            return min(times)
        part = 1 if pow_calls or key[1] == "yard" else 0
        ref = (calibrate.REF_S, calibrate.POW_REF_S)[part]
        return statistics.median(t * ref / p.cal[key][part] for t, p in zip(times, passes))

    first = passes[0]
    decide = {
        i: [figure((i, d), [p.decide[i][k] for p in passes]) for k, d in enumerate(DECIDERS)] for i in first.decide
    }
    yard = {i: figure((i, "yard"), [p.yard[i] for p in passes]) for i in first.yard}
    verify = [
        figure((i, "verify", k), [p.verify[i][k] for p in passes])
        for i in first.verify
        for k in range(len(first.verify[i]))
    ]
    return decide, yard, verify


def end_to_end(
    passes: list[PassTimes], setup_s: float, normalise: bool = True, pow_calls: bool = False
) -> tuple[dict, dict]:
    decide, yard, verify = per_input_times(passes, normalise, pow_calls)
    metrics = {"setup_s": (setup_s, "s")}
    counts = {}
    for k, d in enumerate(DECIDERS):
        ms = [t[k] * 1e3 for t in decide.values()]
        metrics[f"{d}_ms_p50"] = (percentile(ms, 50), "ms")
        metrics[f"{d}_ms_p90"] = (percentile(ms, 90), "ms")
        counts[d] = len(ms)
    vms = [t * 1e3 for t in verify]
    metrics["verify_ms_p50"] = (percentile(vms, 50), "ms")
    metrics["verify_ms_p90"] = (percentile(vms, 90), "ms")
    counts["verify"] = len(vms)
    total = sum(sum(t) for t in decide.values())
    metrics["decide_nps"] = (len(DECIDERS) * len(decide) / total, "1/s")
    metrics["fermat_ratio"] = (total / (len(DECIDERS) * sum(yard.values())), "ratio")
    return metrics, counts


def _med_ms(values) -> float:
    values = list(values)
    return statistics.median(values) * 1e3 if values else 0.0


def per_layer(tracer, plain: PassTimes, traced: PassTimes, misses: int):
    """Per-layer metrics of one traced pass, plus each layer's share of decide time."""
    spans = tracer.spans
    own = tracer.self_seconds()
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def ms(name, pred=lambda s: True):
        return _med_ms(s.seconds for s in by_name[name] if pred(s))

    def info(s, key, default=None):
        return s.info.get(key, default) if isinstance(s.info, dict) else default

    m = {}
    m["ntcore.jacobi.calls"] = (len(by_name["ntcore.jacobi"]), "count")
    m["ntcore.jacobi.ms"] = (ms("ntcore.jacobi"), "ms")
    m["yardstick.fermat.ms"] = (ms("yardstick.fermat"), "ms")
    replayed_bcc = [s for s in by_name["checks.bcc"] if info(s, "replay")]
    m["quadext.one_plus_root.ms"] = (_med_ms(s.seconds - s.info["ecc_s"] for s in replayed_bcc), "ms")
    m["checks.ecc.ms"] = (ms("checks.ecc", lambda s: info(s, "replay")), "ms")
    m["checks.bcc.ms"] = (_med_ms(s.seconds for s in replayed_bcc), "ms")
    for b in BRANCHES:
        m[f"checks.bcc.ms.{b}"] = (_med_ms(s.seconds for s in replayed_bcc if s.info["replay"] == b), "ms")
    m["checks.pgpc_check.ms"] = (ms("checks.pgpc_check"), "ms")
    for mv in PGPC_MS:
        m[f"checks.pgpc_check.ms.m{mv}"] = (ms("checks.pgpc_check", lambda s: s.info["m"] == mv), "ms")
    for c in range(1, 5):
        reached = sum(s.info["reached"] >= c for s in by_name["checks.pgpc_check"])
        m[f"checks.pgpc_check.reached.cond{c}"] = (reached, "count")
    m["checks.fgpc_check.ms"] = (ms("checks.fgpc_check"), "ms")
    for fn in ("mbec_remainder", "poly_powmod"):
        for kind in ("upsilon", "psi"):
            m[f"polyring.{fn}.ms.{kind}"] = (ms(f"polyring.{fn}", lambda s: s.info == kind), "ms")
    finds = by_name["canonical.find_qnr_or_m"]
    m["canonical.find_qnr_or_m.ms"] = (ms("canonical.find_qnr_or_m"), "ms")
    m["canonical.find_qnr_or_m.iters"] = (statistics.fmean(s.info["iters"] for s in finds) if finds else 0.0, "count")
    for kind in ("m", "qnr", "divisor"):
        frac = sum(s.info["exit"] == kind for s in finds) / len(finds) if finds else 0.0
        m[f"canonical.exit_{kind}_frac"] = (frac, "fraction")
    m["canonical.canonical_params.ms"] = (ms("canonical.canonical_params"), "ms")
    m["canonical.canonical_params.misses"] = (misses, "count")
    probes = by_name["algorithms.find_qnr"]
    m["algorithms.find_qnr.ms"] = (ms("algorithms.find_qnr"), "ms")
    m["algorithms.find_qnr.probes"] = (statistics.fmean(s.info["iters"] for s in probes) if probes else 0.0, "count")
    m["algorithms.miller_rabin_base.calls"] = (len(by_name["algorithms.miller_rabin_base"]), "count")
    m["algorithms.miller_rabin_base.ms"] = (ms("algorithms.miller_rabin_base"), "ms")
    for d in DECIDERS:
        selfs = [own[s.id] - (info(s, "tail_s") or 0.0) for s in by_name[f"algorithms.{d}"]]
        m[f"algorithms.{d}.self_ms"] = (_med_ms(selfs), "ms")
    m["algorithms.certificate.ms"] = (ms("algorithms.certificate"), "ms")
    m["algorithms.verify_certificate.ms"] = (ms("algorithms.verify_certificate"), "ms")
    traced_total = sum(sum(t) for t in traced.decide.values())
    plain_total = sum(sum(t) for t in plain.decide.values())
    m["trace.overhead_frac"] = (traced_total / plain_total - 1, "fraction")

    # Share of decide time: every span under a decider call, by layer.
    decider_names = {f"algorithms.{d}" for d in DECIDERS}
    decider_calls = {s.call for s in spans if s.name in decider_names}
    shares = defaultdict(float)
    for s in spans:
        if s.call in decider_calls and s.parent is not None:
            shares[s.name] += s.seconds
    shares["scalar tail (replayed checks.ecc/bcc)"] = sum(
        info(s, "tail_s") or 0.0 for d in DECIDERS for s in by_name[f"algorithms.{d}"]
    )
    shares = {k: v / traced_total for k, v in shares.items()}
    return m, shares


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        ppt = import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    work = WORKLOADS[args.workload](args.seed)
    gen_s = time.perf_counter() - t0
    # Keep the collector off the benchmark's own heap (sympy, the inputs),
    # which a program using only ppt would not have.
    gc.collect()
    gc.freeze()
    if not args.trace:
        raw_setup_s, setup_s = measure_setup(work)
    for mv in work.m_values:
        ppt.canonical_params(mv)
    if work.deep_n:
        ppt.find_qnr(work.deep_n)

    runner = Runner(ppt, work)
    rng = random.Random(f"order/{args.workload}/{args.seed}")
    n_items = len(work.items)
    print(f"workload {args.workload} seed {args.seed}: {n_items} inputs, m values {list(work.m_values)}, generated in {gen_s:.1f} s")

    if args.trace:
        order = list(range(n_items))
        rng.shuffle(order)
        misses0 = ppt.canonical_params.cache_info().misses
        tracer = Tracer(work.m_values)
        plain, traced = runner.traced_pass(order, tracer)
        misses = ppt.canonical_params.cache_info().misses - misses0
        metrics, shares = per_layer(tracer, plain, traced, misses)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(path)
        print(f"1 pass, each input untraced then traced; {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
        print("share of traced decide time, by span (nested spans are counted in their parents too):")
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  {name:44s} {share:8.2%}")
    else:
        planned = max(1, int(args.seconds // PASS_S[args.workload]))
        passes = runner.measure(planned, CAP * args.seconds, rng)
        metrics, counts = end_to_end(passes, setup_s, pow_calls=args.workload in POW_CALLS)
        raw, _ = end_to_end(passes, raw_setup_s, normalise=False)
        cal = [c[0] for p in passes for c in p.cal.values()]
        print(f"{len(passes)} passes; samples per percentile: {counts}")
        print(f"calibration kernel: median reading {statistics.median(cal) * 1e3:.4f} ms, reference {calibrate.REF_S * 1e3:.4f} ms")
        print("raw (not normalised):")
        for name, (value, unit) in raw.items():
            print(f"  {name:42s} {value:14.6g} {unit}")
        print("normalised:")

    attempted = n_items * len(DECIDERS)
    failed = len(runner.failures)
    for (i, d), why in sorted(runner.failures.items()):
        item = work.items[i]
        print(f"FAIL n={item.n} ({item.tag}) {d}: {why}")
    print(f"{'fail_frac':44s} {failed / attempted:14.6g} fraction ({failed} of {attempted} decisions)")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
