#include <chrono>
#include <stdexcept>

#include "driver/simbench.hpp"

namespace simbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer() : epoch_ns_(steady_ns()) {}

double Tracer::now() const { return static_cast<double>(steady_ns() - epoch_ns_) * 1e-9; }

std::uint32_t Tracer::begin(const std::string& name, std::uint32_t scenario) {
  const auto id = static_cast<std::uint32_t>(spans_.size());
  const std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
  spans_.push_back(Span{name, now(), 0.0, parent, scenario});
  open_.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("Tracer::end: span " + std::to_string(id) + " is not innermost");
  }
  spans_[id].end = now();
  open_.pop_back();
}

void Tracer::add(const std::string& name, std::uint64_t calls, double seconds) {
  const std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
  aggregates_.push_back(Aggregate{name, parent, calls, seconds});
}

std::vector<double> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end - spans_[i].start;
  // Spans are recorded on one thread and strictly nested, so children never
  // overlap each other: subtracting each child's duration from its parent
  // removes exactly the covered part of the parent's interval.
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) self[s.parent] -= s.end - s.start;
  }
  for (const Aggregate& a : aggregates_) {
    if (a.parent != kNoParent) self[a.parent] -= a.total;
  }
  return self;
}

std::string Tracer::dump(tcdm::Json counts) const {
  const std::vector<double> self = self_times();
  tcdm::Json::Array spans;
  spans.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    tcdm::Json j;
    j.set("id", static_cast<unsigned long long>(i));
    j.set("name", s.name);
    j.set("start_s", s.start);
    j.set("end_s", s.end);
    j.set("self_s", self[i]);
    j.set("parent", s.parent == kNoParent ? tcdm::Json() : tcdm::Json(s.parent));
    j.set("scenario", s.scenario);
    spans.push_back(std::move(j));
  }
  tcdm::Json::Array aggs;
  aggs.reserve(aggregates_.size());
  for (const Aggregate& a : aggregates_) {
    tcdm::Json j;
    j.set("name", a.name);
    j.set("parent", a.parent == kNoParent ? tcdm::Json() : tcdm::Json(a.parent));
    j.set("calls", static_cast<unsigned long long>(a.calls));
    j.set("total_s", a.total);
    aggs.push_back(std::move(j));
  }
  tcdm::Json doc;
  doc.set("schema", "simbench-trace");
  doc.set("schema_version", 1);
  doc.set("spans", std::move(spans));
  doc.set("aggregates", std::move(aggs));
  doc.set("counts", std::move(counts));
  return doc.dump();
}

}  // namespace simbench
