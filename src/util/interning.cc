#include "util/interning.h"

#include <stdexcept>

namespace datalog {

int32_t StringInterner::Intern(std::string_view text) {
  auto it = index_.find(text);
  if (it != index_.end()) return it->second;
  int32_t id = static_cast<int32_t>(strings_.size());
  strings_.emplace_back(text);
  index_.emplace(strings_.back(), id);
  return id;
}

int32_t StringInterner::Lookup(std::string_view text) const {
  auto it = index_.find(text);
  return it == index_.end() ? -1 : it->second;
}

ValueDictionary::ValueDictionary()
    : chunks_(std::make_unique<std::array<std::atomic<Value*>, kMaxChunks>>()) {
  for (std::atomic<Value*>& chunk : *chunks_) {
    chunk.store(nullptr, std::memory_order_relaxed);
  }
}

ValueDictionary& ValueDictionary::Global() {
  // Leaked intentionally: relations on any thread may resolve ids during
  // static destruction of other objects.
  static ValueDictionary* const kGlobal = new ValueDictionary();
  return *kGlobal;
}

std::uint32_t ValueDictionary::Intern(const Value& v) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = index_.find(v);
    if (it != index_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  return InternLocked(v);
}

std::uint32_t ValueDictionary::InternLocked(const Value& v) {
  auto it = index_.find(v);
  if (it != index_.end()) return it->second;
  const std::uint32_t id = size_.load(std::memory_order_relaxed);
  if (id == kInvalidId) {
    throw std::length_error("ValueDictionary: 2^32-1 distinct values");
  }
  const std::uint32_t chunk_index = id >> kChunkBits;
  Value* chunk = (*chunks_)[chunk_index].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk_storage_.push_back(std::make_unique<Value[]>(kChunkSize));
    chunk = chunk_storage_.back().get();
    (*chunks_)[chunk_index].store(chunk, std::memory_order_release);
  }
  chunk[id & (kChunkSize - 1)] = v;
  index_.emplace(v, id);
  // Publish: the slot write above becomes visible to every reader that
  // observes size() > id (Resolve's acquire load pairs with this).
  size_.store(id + 1, std::memory_order_release);
  return id;
}

void ValueDictionary::InternRow(const std::vector<Value>& row,
                                std::vector<std::uint32_t>* out) {
  out->resize(row.size());
  InternRow(row.data(), row.size(), out->data());
}

void ValueDictionary::InternRow(const Value* row, std::size_t size,
                                std::uint32_t* out) {
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    std::size_t i = 0;
    for (; i < size; ++i) {
      auto it = index_.find(row[i]);
      if (it == index_.end()) break;
      out[i] = it->second;
    }
    if (i == size) return;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (std::size_t i = 0; i < size; ++i) out[i] = InternLocked(row[i]);
}

std::uint32_t ValueDictionary::LookupId(const Value& v) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = index_.find(v);
  return it == index_.end() ? kInvalidId : it->second;
}

bool ValueDictionary::LookupRow(const std::vector<Value>& row,
                                std::vector<std::uint32_t>* out) const {
  return LookupRow(row.data(), row.size(), out);
}

bool ValueDictionary::LookupRow(const Value* row, std::size_t size,
                                std::vector<std::uint32_t>* out) const {
  out->resize(size);
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (std::size_t i = 0; i < size; ++i) {
    auto it = index_.find(row[i]);
    if (it == index_.end()) return false;
    (*out)[i] = it->second;
  }
  return true;
}

}  // namespace datalog
