#include "gridsec/obs/trace.hpp"

#include "gridsec/obs/prof.hpp"

namespace gridsec::obs {

#ifndef GRIDSEC_NO_OBS

TraceSpan::TraceSpan(const char* name) : prof_(Profiler::enabled()) {
  if (prof_) prof_detail::frame_push(name);
}

TraceSpan::~TraceSpan() {
  if (prof_) prof_detail::frame_pop();
}

#endif  // GRIDSEC_NO_OBS

}  // namespace gridsec::obs
