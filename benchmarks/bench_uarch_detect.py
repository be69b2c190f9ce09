"""§IV: semi-automatic micro-architectural parameter detection.

Fig. 6 determines instruction latencies from CYCLE-dependence
microbenchmarks; the section's broader goal is discovering features like
decode-line size, predictor indexing, and LSD capacity by experimentation.
Here the detectors run against *blinded* processor models — they see PMU
counters only — and must recover the hidden parameters.
"""

from _bench_util import report

from repro.mbench import Processor, detect
from repro.uarch.profiles import blinded_profile, core2, opteron

LATENCY_TEMPLATES = {
    "addq %r, %r": "alu",
    "imulq %r, %r": "mul",
    "movq (%r), %r": "load",
}


def test_instruction_latency_table(once):
    """Fig. 6's InstructionLatency over the known profiles."""
    def run():
        rows = []
        for model in (core2(), opteron()):
            proc = Processor(model)
            for template, key in LATENCY_TEMPLATES.items():
                measured = detect.InstructionLatency(proc, template,
                                                     trip_count=600)
                rows.append((model.name, template, measured,
                             model.latency[key]))
        return rows

    rows = once(run)
    report("§IV Fig. 6 — InstructionLatency vs model truth",
           ["processor", "template", "measured", "truth"], rows)
    for _, template, measured, truth in rows:
        assert measured == truth, template


def test_blinded_parameter_detection(once):
    """Full detection suite against blinded processors."""
    def run():
        results = []
        for seed in (1, 7, 13):
            model = blinded_profile(seed)
            proc = Processor(model)
            results.append({
                "seed": seed,
                "line": (detect.DetectDecodeLineSize(proc),
                         model.decode_line_bytes),
                "shift": (detect.DetectBranchPredictorShift(proc),
                          model.bp_index_shift),
                "mul": (detect.InstructionLatency(proc, "imulq %r, %r",
                                                  trip_count=400),
                        model.latency["mul"]),
            })
        return results

    results = once(run)
    rows = []
    correct = 0
    total = 0
    for entry in results:
        for key in ("line", "shift", "mul"):
            measured, truth = entry[key]
            rows.append(("blinded-%d" % entry["seed"], key, measured,
                         truth, "ok" if measured == truth else "MISS"))
            correct += measured == truth
            total += 1
    report("§IV — blinded parameter detection",
           ["processor", "parameter", "detected", "truth", ""], rows,
           extra="recovered %d/%d hidden parameters" % (correct, total))
    once.benchmark.extra_info["recovered"] = correct
    assert correct >= total - 1, "detection must recover the parameters"


def test_known_profile_structure_detection(once):
    """The Core-2 / Opteron structural parameters the paper documents."""
    def run():
        c2 = Processor(core2())
        amd = Processor(opteron())
        c2_line = detect.DetectDecodeLineSize(c2)
        amd_line = detect.DetectDecodeLineSize(amd)
        return {
            "core2 line": (c2_line, 16),
            "core2 bp shift": (detect.DetectBranchPredictorShift(c2), 5),
            "core2 lsd lines": (detect.DetectLsdLineBudgetByCounter(
                c2, c2_line, c2.model.lsd_min_iterations), 4),
            "core2 fw bw": (detect.DetectForwardingBandwidthMatch(
                c2, c2.model), 3),
            "opteron line": (amd_line, 32),
            "opteron lsd lines": (detect.DetectLsdLineBudgetByCounter(
                amd, amd_line, amd.model.lsd_min_iterations), 1),
            "opteron fw bw": (detect.DetectForwardingBandwidthMatch(
                amd, amd.model), 3),
        }

    results = once(run)
    rows = [(name, measured, truth)
            for name, (measured, truth) in results.items()]
    report("§IV — structural feature detection on the paper's platforms",
           ["feature", "detected", "expected"], rows)
    for name, (measured, truth) in results.items():
        assert measured == truth, name
