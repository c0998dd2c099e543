// Translates photodtn_cli command-line options into an ExperimentSpec.
// Split from the binary so the option semantics are unit-testable.
#pragma once

#include <string>
#include <vector>

#include "sim/experiment.h"
#include "util/args.h"

namespace photodtn::cli {

/// Builds the scenario from --trace/--scale/--pois/--theta-deg/--p-thld/
/// --rate/--storage-gb/--hours/--seed and the --fault-* knobs. Throws
/// std::runtime_error naming the flag on invalid values (non-finite
/// numbers included).
ScenarioConfig scenario_from(const Args& args);

/// Full simulate spec: scenario plus --runs/--seed/--max-contact-s/
/// --trace-file/--calibrated. --runs must be in [1, kMaxExperimentRuns] and
/// --seed non-negative.
ExperimentSpec spec_from(const Args& args);

/// Parses the --scheme comma list (default "OurScheme,Spray&Wait").
std::vector<std::string> schemes_from(const Args& args);

/// Parses --checkpoint-every/--checkpoint-out/--restore-from. Validates the
/// combination: an interval needs an output path, and either direction of
/// persistence is limited to --runs 1 with a single scheme (a snapshot
/// captures exactly one run).
RunPersistence persistence_from(const Args& args, std::size_t runs,
                                std::size_t num_schemes);

/// Throws if any provided option was never consumed (typo protection).
void reject_unknown_options(const Args& args);

/// Throws when the command received more bare (non-option) arguments than
/// it takes — a stray positional is usually a mistyped option value.
void reject_stray_positionals(const Args& args, std::size_t expected);

}  // namespace photodtn::cli
