#include "obs/trace_recorder.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <unordered_set>

#include "util/check.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace photodtn::obs {

namespace {
/// Backing store of TraceRecorder::intern(). std::set node addresses are
/// stable, so a handed-out pointer stays valid as the set grows.
class InternPool {
 public:
  const char* intern(const std::string& s) {
    MutexLock lk(mu_);
    return strings_.insert(s).first->c_str();
  }

 private:
  Mutex mu_;
  std::set<std::string> strings_ PHOTODTN_GUARDED_BY(mu_);
};
}  // namespace

void TraceRecorder::push(TraceEvent ev, std::initializer_list<TraceArg> args) {
  PHOTODTN_DCHECK_MSG(args.size() <= TraceEvent::kMaxArgs,
                      "too many trace event args");
  ev.nargs = 0;
  for (const TraceArg& a : args) {
    if (ev.nargs >= TraceEvent::kMaxArgs) break;
    ev.args[ev.nargs++] = a;
  }
  ev.seq = next_seq_++;
  events_.push_back(ev);
}

void TraceRecorder::complete(const char* name, const char* cat, double ts_s,
                             double dur_s, std::int32_t tid,
                             std::initializer_list<TraceArg> args) {
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kComplete;
  ev.name = name;
  ev.cat = cat;
  ev.ts_s = ts_s;
  ev.dur_s = dur_s;
  ev.tid = tid;
  push(ev, args);
}

void TraceRecorder::instant(const char* name, const char* cat, double ts_s,
                            std::int32_t tid, std::initializer_list<TraceArg> args) {
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kInstant;
  ev.name = name;
  ev.cat = cat;
  ev.ts_s = ts_s;
  ev.tid = tid;
  push(ev, args);
}

void TraceRecorder::counter(const char* name, double ts_s, double value) {
  TraceEvent ev;
  ev.phase = TraceEvent::Phase::kCounter;
  ev.name = name;
  ev.cat = "counter";
  ev.ts_s = ts_s;
  push(ev, {{"value", value}});
}

const char* TraceRecorder::intern(const std::string& s) {
  static InternPool pool;
  return pool.intern(s);
}

void TraceRecorder::restore_events(std::vector<TraceEvent> events,
                                   std::uint64_t next_seq) {
  events_ = std::move(events);
  next_seq_ = next_seq;
}

std::vector<TraceEvent> TraceRecorder::merged() const {
  std::vector<TraceEvent> out = events_;
  std::sort(out.begin(), out.end(), [](const TraceEvent& x, const TraceEvent& y) {
    if (x.ts_s != y.ts_s) return x.ts_s < y.ts_s;
    return x.seq < y.seq;
  });
  return out;
}

void TraceRecorder::audit() const {
  auto check = [](bool ok, const char* what) {
    if (!ok) throw std::logic_error(std::string("TraceRecorder::audit: ") + what);
  };
  std::unordered_set<std::uint64_t> seqs;
  for (const TraceEvent& ev : events_) {
    check(ev.name != nullptr && ev.name[0] != '\0', "unnamed event");
    check(ev.cat != nullptr, "null category");
    check(std::isfinite(ev.ts_s), "non-finite timestamp");
    check(std::isfinite(ev.dur_s) && ev.dur_s >= 0.0, "bad duration");
    check(ev.phase == TraceEvent::Phase::kComplete || ev.dur_s == 0.0,
          "duration on a non-span event");
    check(ev.nargs <= TraceEvent::kMaxArgs, "arg count out of range");
    for (std::uint32_t i = 0; i < ev.nargs; ++i) {
      check(ev.args[i].first != nullptr && ev.args[i].first[0] != '\0',
            "unnamed event arg");
    }
    check(seqs.insert(ev.seq).second, "duplicate sequence stamp");
  }
}

}  // namespace photodtn::obs
