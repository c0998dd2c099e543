// Machine-readable export of experiment results (JSON), for plotting
// pipelines and archival of reproduction runs.
#pragma once

#include <span>
#include <string>

#include "sim/experiment.h"

namespace photodtn {

/// Serializes one result: scheme, sample grid, mean curves with 95% CIs,
/// and final-value statistics.
std::string experiment_result_to_json(const ExperimentResult& result);

/// Serializes a whole comparison: {"results": [...]}.
std::string comparison_to_json(std::span<const ExperimentResult> results);

/// Writes comparison JSON to `path`; returns false if the file cannot be
/// written.
bool write_comparison_json(const std::string& path,
                           std::span<const ExperimentResult> results);

/// Metrics-only export: {"schema":"photodtn-metrics/1","results":[{scheme,
/// metrics}...]} — one merged registry snapshot per scheme (empty object
/// when a result carries none). The bench/CI pipeline reads this shape.
std::string metrics_to_json(std::span<const ExperimentResult> results);
bool write_metrics_json(const std::string& path,
                        std::span<const ExperimentResult> results);

/// Provenance export (JSONL): one header object
/// {"schema":"photodtn-provenance/1",scheme,runs,final_point,final_aspect,
/// delivered,events} then one compact object per event of the provenance
/// view, in emission order — kind/outcome as strings, the numeric payload
/// verbatim, and the event's index in the view as "seq". Line-oriented so
/// the analyzer (tools/obs/provenance_report.py) and the validator
/// (tools/obs/check_trace.py validate-provenance) can stream it, and
/// byte-identical across PHOTODTN_THREADS (the log's order is).
std::string provenance_to_jsonl(const ExperimentResult& result);
bool write_provenance_jsonl(const std::string& path,
                            const ExperimentResult& result);

}  // namespace photodtn
