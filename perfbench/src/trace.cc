#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, const char* name, uint64_t request)
    : tracer_(tracer.on_ ? &tracer : nullptr) {
  if (tracer_ == nullptr) return;
  index_ = static_cast<int32_t>(tracer.spans_.size());
  const int32_t parent = tracer.open_.empty() ? -1 : tracer.open_.back();
  tracer.spans_.push_back(Span{name, tracer.Now(), -1, parent, request});
  tracer.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = tracer_->Now();
  tracer_->open_.pop_back();
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                    uint64_t request) {
  if (!on_) return;
  const int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, start_ns, end_ns, parent, request});
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back((s.end_ns - s.start_ns) * 1e-3);
  }
  return out;
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  // Child time per span: the union of its children's intervals (children
  // of one span may overlap when they are concurrent requests).
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0, reach = s.start_ns;
    for (auto [begin, end] : kids) {
      begin = std::max(begin, reach);
      end = std::min(end, s.end_ns);
      if (end > begin) {
        covered += end - begin;
        reach = end;
      }
    }
    Totals& t = out[s.name];
    t.total_ms += (s.end_ns - s.start_ns) * 1e-6;
    t.self_ms += (s.end_ns - s.start_ns - covered) * 1e-6;
    ++t.count;
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"summary\": {");
  bool first = true;
  for (const auto& [name, t] : Summarize()) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"count\": %llu, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(t.count), t.total_ms,
                 t.self_ms);
    first = false;
  }
  std::fprintf(f, "},\n\"spans\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": "
                 "%lld, \"parent\": %d, \"request\": %llu}",
                 i == 0 ? "" : ",", s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
