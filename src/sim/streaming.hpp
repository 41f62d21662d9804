// Former names of the study engine, kept for callers that still use them.
#pragma once

#include "sim/study.hpp"

namespace dosn::sim {

using StreamingStudy = Study;
using StreamingOptions = StudyOptions;

}  // namespace dosn::sim
