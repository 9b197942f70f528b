#include "obs/trace.hpp"

#include <algorithm>
#include <cassert>

namespace esg::obs {

void Span::end() {
  if (tracer_ != nullptr && id_ != 0) tracer_->end(id_);
  tracer_ = nullptr;
  id_ = 0;
}

void Span::set_attr(std::string key, std::string value) {
  if (tracer_ != nullptr && id_ != 0) {
    tracer_->set_attr(id_, std::move(key), std::move(value));
  }
}

Span Span::child(std::string name, std::string category) {
  if (tracer_ == nullptr) return {};
  return Span(tracer_,
              tracer_->begin(std::move(name), std::move(category), track_,
                             id_),
              track_);
}

Tracer::Tracer(std::function<common::SimTime()> clock, std::size_t max_spans)
    : clock_(std::move(clock)), max_spans_(max_spans) {
  assert(clock_);
  track_names_[0] = "main";
}

TrackId Tracer::new_track(std::string name) {
  std::scoped_lock lock(mu_);
  const TrackId id = next_track_++;
  track_names_[id] = std::move(name);
  return id;
}

Span Tracer::span(std::string name, std::string category, TrackId track) {
  return Span(this, begin(std::move(name), std::move(category), track),
              track);
}

SpanId Tracer::begin(std::string name, std::string category, TrackId track,
                     SpanId parent) {
  const common::SimTime now = clock_();
  std::unique_lock lock(mu_);
  if (records_.size() >= max_spans_) {
    const std::size_t total = ++dropped_;
    const auto hook = drop_hook_;
    lock.unlock();
    if (hook) hook(total);
    return 0;
  }
  SpanRecord rec;
  rec.id = records_.size() + 1;
  rec.track = track;
  auto& stack = open_[track];
  rec.parent = parent != 0 ? parent : (stack.empty() ? 0 : stack.back());
  rec.name = std::move(name);
  rec.category = std::move(category);
  rec.start = now;
  stack.push_back(rec.id);
  records_.push_back(std::move(rec));
  return records_.back().id;
}

void Tracer::end(SpanId id) {
  if (id == 0) return;
  const common::SimTime now = clock_();
  std::scoped_lock lock(mu_);
  if (id > records_.size()) return;
  SpanRecord& rec = records_[id - 1];
  if (!rec.open()) return;
  rec.end = now;
  // Async spans may end out of LIFO order; erase wherever it sits.  An
  // emptied stack goes too: begin() recreates it, and an absent stack
  // infers no parent just as an empty one does.
  const auto track = open_.find(rec.track);
  if (track == open_.end()) return;
  auto& stack = track->second;
  auto it = std::find(stack.rbegin(), stack.rend(), id);
  if (it != stack.rend()) stack.erase(std::next(it).base());
  if (stack.empty()) open_.erase(track);
}

void Tracer::set_attr(SpanId id, std::string key, std::string value) {
  if (id == 0) return;
  std::scoped_lock lock(mu_);
  if (id > records_.size()) return;
  records_[id - 1].attrs.emplace_back(std::move(key), std::move(value));
}

void Tracer::set_capacity(std::size_t max_spans) {
  std::scoped_lock lock(mu_);
  max_spans_ = max_spans;
}

void Tracer::set_drop_hook(std::function<void(std::size_t)> hook) {
  std::scoped_lock lock(mu_);
  drop_hook_ = std::move(hook);
}

std::vector<SpanRecord> Tracer::spans() const {
  std::scoped_lock lock(mu_);
  return records_;
}

std::map<TrackId, std::string> Tracer::tracks() const {
  std::scoped_lock lock(mu_);
  return track_names_;
}

std::size_t Tracer::span_count() const {
  std::scoped_lock lock(mu_);
  return records_.size();
}

std::size_t Tracer::dropped() const {
  std::scoped_lock lock(mu_);
  return dropped_;
}

}  // namespace esg::obs
