#ifndef DATALOG_EVAL_RELATION_H_
#define DATALOG_EVAL_RELATION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "eval/group_match.h"
#include "eval/tuple.h"
#include "util/block_cache.h"
#include "util/interning.h"

namespace datalog {

/// A run of dictionary ids whose buffer is recycled through the block
/// cache (util/block_cache.h): the type of a relation's id columns.
using IdVector = BlockVector<std::uint32_t>;

/// Rows of dictionary ids buffered for one batch insert: `count` rows of
/// the target relation's arity, laid out row-major in `ids`. The count is
/// explicit because zero-arity rows take no ids. The bytecode VM derives
/// each rule application's head rows into one of these before inserting
/// them: it resizes `ids` to make room for a segment's candidate rows,
/// which leaves the room unwritten (RoomVector), writes the rows it
/// accepts, and trims the rest away.
struct IdRowBuffer {
  RoomVector<std::uint32_t> ids;
  std::size_t count = 0;
};

class Relation;

/// Rows [begin, end) of one relation. Every atom source of semi-naive
/// evaluation is one of these over the full relation -- kFull reads
/// [0, size), kOld [0, old) and kDelta [old, mark) -- so a round reads
/// its delta in place (see DeltaRanges in eval/rule_matcher.h).
struct RowSpan {
  std::size_t begin = 0;
  std::size_t end = 0;

  bool empty() const { return end <= begin; }
  std::size_t size() const { return empty() ? 0 : end - begin; }
  bool contains(std::size_t row) const { return begin <= row && row < end; }
};

/// A non-owning view of one row: a row of a Relation or a Tuple.
/// `operator[]` yields the column's Value -- for a relation row by
/// resolving the stored id through the lock-free
/// ValueDictionary::Resolve -- so readers index rows without allocating;
/// conversion to an owning Tuple is explicit. Implicitly constructible
/// from a Tuple (like std::string_view from std::string), which lets
/// every row-consuming API take probe keys and stored rows alike.
///
/// A view of a relation row stays valid across later inserts (it holds
/// the row index, not a pointer into row storage) until the relation is
/// destroyed, moved, or erased from; a view of a Tuple lives as long as
/// the Tuple.
class RowRef {
 public:
  RowRef(const Tuple& tuple)  // NOLINT(google-explicit-constructor)
      : values_(tuple.data()),
        size_(static_cast<std::uint32_t>(tuple.size())) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Value operator[](std::size_t c) const {
    if (columns_ == nullptr) return values_[c];
    return ValueDictionary::Global().Resolve((*columns_)[c][row_]);
  }

  /// The dictionary id of column `c`. Only for rows of a relation
  /// (has_ids() is true).
  std::uint32_t id(std::size_t c) const { return (*columns_)[c][row_]; }
  bool has_ids() const { return columns_ != nullptr; }

  explicit operator Tuple() const {
    Tuple tuple;
    tuple.reserve(size_);
    for (std::size_t c = 0; c < size_; ++c) tuple.push_back((*this)[c]);
    return tuple;
  }

  /// Value-wise equality, whatever backs either side.
  friend bool operator==(const RowRef& a, const RowRef& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t c = 0; c < a.size_; ++c) {
      if (a[c] != b[c]) return false;
    }
    return true;
  }

 private:
  friend class Relation;
  RowRef(const std::vector<IdVector>* columns, std::uint32_t row,
         std::uint32_t size)
      : columns_(columns), row_(row), size_(size) {}

  const Value* values_ = nullptr;  // Tuple-backed rows
  const std::vector<IdVector>* columns_ = nullptr;
  std::uint32_t row_ = 0;
  std::uint32_t size_ = 0;
};

/// A set of tuples of fixed arity with insertion-order iteration and lazy
/// hash indexes on column subsets. Rows are append-only, which lets indexes
/// extend incrementally and lets callers treat a row-count watermark as a
/// stable snapshot boundary (used by semi-naive evaluation).
///
/// Storage is columnar (see docs/columnar_storage.md): every inserted
/// value is interned to a dense u32 id in the global ValueDictionary and
/// each column is a contiguous IdVector. The columns are the only row
/// storage: dedup, membership and the postings indexes all key on ids,
/// so probes compare 4-byte integers, and rows are read back through
/// RowRef views that resolve ids on access.
///
/// Rows of a width other than arity() are rejected by every insert entry
/// (std::invalid_argument); membership probes of another width simply
/// find nothing.
///
/// Thread safety: mutation (Insert) requires exclusive access, and Lookup
/// lazily builds indexes, so it is not a pure read in general. Concurrent
/// access from multiple threads is safe only under the frozen-snapshot
/// contract: no Insert is in flight, and every column set that will be
/// probed has been EnsureIndex'd since the last Insert. Under that
/// contract Lookup, Contains, FindRow, rows(), row(), column() and size()
/// are all read-only (see docs/parallel_eval.md).
class Relation {
 public:
  /// FindRow's "no such row".
  static constexpr std::uint32_t kNoRow = 0xFFFFFFFFu;

  explicit Relation(int arity = 0)
      : arity_(arity),
        columns_(static_cast<std::size_t>(arity)),
        id_table_(static_cast<std::size_t>(arity)) {}

  int arity() const { return arity_; }
  std::size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Inserts `tuple`; returns true if it was not already present.
  bool Insert(Tuple tuple);

  /// Inserts every row of `rows` in order (each of arity() ids); returns
  /// how many were new. The single write path of the bytecode VM and of
  /// fact loading: only the id columns and the dedup table are written,
  /// no Value is touched. Once the batch's first kYieldPrefix rows are
  /// in, the dedup table and the columns are reserved once for the rest
  /// of the batch at the share of new rows those rows showed -- twice
  /// that when the relation held rows before the batch, because a
  /// relation that grows round by round gets its next round's batch
  /// soon: a mostly-duplicate batch reserves next to nothing, a
  /// mostly-new one stops doubling mid-batch, and a growing relation
  /// skips one doubling of the next round. A load into an empty
  /// relation reserves for its own batch only. A prefix that misleads
  /// over-reserves by at most twice the batch's remaining rows, and
  /// nothing is kept past the batch. Batches of at most kYieldPrefix
  /// rows reserve nothing.
  std::size_t InsertIdRows(const IdRowBuffer& rows);

  /// Appends rows [begin, end) of `src` (same arity) in order; returns
  /// how many were new. `begin >= end` appends nothing; `end` past
  /// src.size() throws std::invalid_argument, like a width mismatch.
  /// The copy stays in id space, and a whole relation copied into an
  /// EMPTY one -- an EDB copy, a parallel task's derivations merged into
  /// a relation that had none -- takes the columns and the dedup table
  /// verbatim, without a single equality probe. Any other copy runs
  /// InsertIdRows' row loop, reservation included.
  std::size_t AddRowRange(const Relation& src, std::size_t begin,
                          std::size_t end);

  /// Erases every tuple of `tuples` that is present; returns how many
  /// were removed. Removal compacts the rows (later rows shift down) and
  /// invalidates every index -- including any outstanding
  /// Prepare{Single,}Index views, which keep pointing at live (now
  /// empty) index maps rather than freed memory -- so erasure breaks the
  /// append-only watermark contract and must never run concurrently with
  /// readers. The incremental materialization engine calls this between
  /// evaluation rounds, when it has exclusive access (see
  /// docs/incremental_eval.md).
  std::size_t EraseAll(const std::vector<Tuple>& tuples);

  /// The id of the stored row equal to `row`, or kNoRow: one dedup-table
  /// probe (ids read straight from `row` when it is itself a relation
  /// row view). Rows are append-only, so a fully bound atom over a row
  /// range (an old snapshot, a delta) matches iff the id lies inside it
  /// (FindRowIdsIn).
  std::uint32_t FindRow(RowRef row) const;
  bool Contains(RowRef row) const { return FindRow(row) != kNoRow; }
  bool Contains(const Tuple& tuple) const { return Contains(RowRef(tuple)); }

  /// Hot path of FindRow: `ids` points at arity() ids.
  std::uint32_t FindRowIds(const std::uint32_t* ids) const {
    return id_table_.Find(columns_, ids);
  }

  /// FindRowIds restricted to `rows`: the matching row's id when it lies
  /// inside the span, kNoRow otherwise. Rows are append-only, so this is
  /// how a fully bound atom reads an old snapshot or a delta range.
  std::uint32_t FindRowIdsIn(const std::uint32_t* ids, RowSpan rows) const {
    const std::uint32_t id = FindRowIds(ids);
    return rows.contains(id) ? id : kNoRow;
  }

  /// Scan bounds: `rows` clipped to the rows that exist.
  RowSpan Bounds(RowSpan rows) const {
    return {std::min(rows.begin, num_rows_), std::min(rows.end, num_rows_)};
  }
  RowSpan AllRows() const { return {0, num_rows_}; }

  /// The segment of `postings` -- an ascending row-id list from one of
  /// this relation's indexes -- that lies inside `rows`, found by binary
  /// search at each end that cuts anything off. A span covering the whole
  /// relation costs two inline compares and reads no posting. Its size()
  /// is the number of matching rows in the span, in ascending row order.
  std::span<const std::uint32_t> PostingsIn(
      const std::vector<std::uint32_t>& postings, RowSpan rows) const {
    if (rows.begin == 0 && rows.end >= num_rows_) return postings;
    return CutPostings(postings, rows);
  }

  /// Membership by dictionary ids; agrees with Contains on the resolved
  /// tuple.
  bool ContainsIds(const std::vector<std::uint32_t>& ids) const;

  /// The rows in insertion order, as RowRef views.
  class RowRange {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = RowRef;
      using difference_type = std::ptrdiff_t;
      using pointer = void;
      using reference = RowRef;

      iterator() = default;
      RowRef operator*() const { return rel_->row(i_); }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      iterator operator++(int) {
        iterator old = *this;
        ++i_;
        return old;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.i_ == b.i_;
      }

     private:
      friend class RowRange;
      iterator(const Relation* rel, std::size_t i) : rel_(rel), i_(i) {}
      const Relation* rel_ = nullptr;
      std::size_t i_ = 0;
    };

    iterator begin() const { return iterator(rel_, 0); }
    iterator end() const { return iterator(rel_, rel_->size()); }
    std::size_t size() const { return rel_->size(); }
    bool empty() const { return rel_->empty(); }
    RowRef operator[](std::size_t i) const { return rel_->row(i); }

   private:
    friend class Relation;
    explicit RowRange(const Relation* rel) : rel_(rel) {}
    const Relation* rel_;
  };

  RowRange rows() const { return RowRange(this); }
  RowRef row(std::size_t i) const {
    return RowRef(&columns_, static_cast<std::uint32_t>(i),
                  static_cast<std::uint32_t>(arity_));
  }

  /// The id column for `c`: column(c)[i] is the dictionary id of
  /// row(i)[c]. Contiguous, insertion-ordered, append-only between
  /// erasures -- the bytecode VM's scan substrate.
  const IdVector& column(int c) const {
    return columns_[static_cast<std::size_t>(c)];
  }

  /// Returns the row indices whose projection onto `columns` equals `key`
  /// (`key[i]` corresponds to `columns[i]`). `columns` must be strictly
  /// increasing and non-empty. Builds/extends the index on first use.
  /// Single-column probes are routed to the single-column fast path below.
  const std::vector<std::uint32_t>& Lookup(const std::vector<int>& columns,
                                           const Tuple& key) const;

  /// Single-column fast path: the index is keyed directly on the value's
  /// dictionary id, so neither the probe nor the per-row index entries
  /// allocate a one-element key. Agrees exactly with
  /// Lookup({column}, {key}).
  const std::vector<std::uint32_t>& Lookup(int column, const Value& key) const;

  /// Builds (or extends to cover all current rows) the index on
  /// `columns`, making subsequent Lookup calls on that column set pure
  /// reads until the next Insert. The parallel evaluator calls this for
  /// every column set its plans will probe before fanning out.
  void EnsureIndex(const std::vector<int>& columns) const;

  /// Hashes an id row / id key the same way TupleHash hashes a Tuple.
  struct IdRowHash {
    std::size_t operator()(const std::vector<std::uint32_t>& ids) const {
      std::size_t seed = ids.size();
      for (std::uint32_t id : ids) {
        HashCombine(seed, std::hash<std::uint32_t>{}(id));
      }
      return seed;
    }
  };

  /// Direct handles onto a built index, skipping the per-probe index-map
  /// find and extend check that Lookup pays. Valid until the next Insert;
  /// EraseAll empties the underlying maps in place, so a stale view
  /// safely finds nothing instead of dangling. Execute prepares one per
  /// join depth per enumeration, and the bytecode VM one per step (the
  /// relation is frozen while matching). Views probe by dictionary id
  /// only; an id no stored value has, kInvalidId included, finds nothing.
  class SingleIndexView {
   public:
    SingleIndexView() = default;
    bool valid() const { return map_ != nullptr; }
    const std::vector<std::uint32_t>& FindId(std::uint32_t id) const {
      auto it = map_->find(id);
      return it == map_->end() ? EmptyRowIds() : it->second;
    }

   private:
    friend class Relation;
    using Map = std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>;
    explicit SingleIndexView(const Map* map) : map_(map) {}
    const Map* map_ = nullptr;
  };
  class MultiIndexView {
   public:
    MultiIndexView() = default;
    bool valid() const { return map_ != nullptr; }
    const std::vector<std::uint32_t>& FindIds(
        const std::vector<std::uint32_t>& key) const {
      auto it = map_->find(key);
      return it == map_->end() ? EmptyRowIds() : it->second;
    }

   private:
    friend class Relation;
    using Map = std::unordered_map<std::vector<std::uint32_t>,
                                   std::vector<std::uint32_t>, IdRowHash>;
    explicit MultiIndexView(const Map* map) : map_(map) {}
    const Map* map_ = nullptr;
  };

  /// Build/extend the index on `column` (resp. `columns`, any size >= 0;
  /// the degenerate empty-column index maps the empty key to every row)
  /// and return a view of it. Same laziness and thread-safety contract
  /// as Lookup: write-free when the index already covers all rows.
  SingleIndexView PrepareSingleIndex(int column) const;
  MultiIndexView PrepareIndex(const std::vector<int>& columns) const;

  /// The sorted distinct dictionary ids stored in `column` over `rows`:
  /// the root candidate list the multiway-intersection plan shape
  /// intersects against (see docs/multiway_joins.md). Cached: the whole
  /// relation's list is rebuilt when rows were appended since the last
  /// call, and a partial span's list -- a round's delta range, or a
  /// parallel shard of it -- is computed once and kept until a span is
  /// asked for at a larger relation size, i.e. in a later round. An
  /// enumeration reads one span per column, so dropping those never
  /// pulls a list from under a reader. The whole relation's list is
  /// sorted from the keys of the single-column index on `column` when
  /// that index covers every row (PrepareSingleIndex or EnsureIndex since
  /// the last append), and collected from the rows otherwise; partial
  /// spans always read the rows, and no index is ever built here. Same
  /// thread-safety contract as Lookup: write-free when cached, so
  /// EnsureSortedKeys before a parallel fan-out makes it a pure read.
  /// EraseAll drops every cached list.
  const std::vector<std::uint32_t>& SortedKeys(int column,
                                               RowSpan rows) const;
  void EnsureSortedKeys(int column, RowSpan rows) const {
    SortedKeys(column, rows);
  }

  /// Uncached form of SortedKeys that also handles repeated variables:
  /// sets `*out` to the sorted distinct ids v such that some row of
  /// `rows` holds v in every column of `columns` (non-empty).
  void CollectSortedKeys(const std::vector<int>& columns, RowSpan rows,
                         std::vector<std::uint32_t>* out) const;

  static const std::vector<std::uint32_t>& EmptyRowIds();

 private:
  /// Dedup/membership table over the id columns, laid out like a
  /// SwissTable-style hash set. Slots come in groups of 16, and each slot
  /// has one control byte: group_match::kFree, or a 7-bit tag cut from
  /// the slot's hash. The other hash bits pick the home group; groups are
  /// visited in triangular order over a power-of-two group count, and
  /// the table doubles at 7/8 load. A probe matches its tag against a
  /// group's 16 control bytes in one compare (eval/group_match.h: SSE2
  /// when the compiler has it, SWAR otherwise) and reads a key word only
  /// for a tag hit; a probe for an absent row stops at the first group
  /// with a free byte, having read nothing but control bytes. Nothing is
  /// ever deleted (EraseAll rebuilds), so the first free byte on a
  /// row's probe path is also where an insert lands.
  ///
  /// Each slot's 64-bit key word and row id sit in arrays parallel to
  /// the control bytes; the rows themselves stay in columns_, so neither
  /// insert nor probe allocates. The three arrays, like the columns, are
  /// BlockVectors: a table freed by one evaluation serves the next. The
  /// key word is the row itself when it fits in 64 bits -- arity 2 or
  /// less, by far the common case -- and the row's 64-bit hash otherwise.
  /// Narrow rows are therefore deduplicated by one word compare, without
  /// ever reading the columns; wider rows read a stored row's columns
  /// only when the hash words agree. Either way a rehash re-scatters key
  /// words without touching the columns. Every key is exactly `width`
  /// dictionary ids (the Relation checks widths at its entry points).
  class RowIdTable {
   public:
    using Columns = std::vector<IdVector>;

    explicit RowIdTable(std::size_t width = 0)
        : width_(width), packed_(width <= 2) {}

    /// A row's key word and the hash its probe is cut from.
    struct KeyHash {
      std::uint64_t key;
      std::uint64_t hash;
    };

    /// The key kinds the row loops are compiled for: packed rows of 0, 1
    /// or 2 ids, whose kind is their width, and hashed rows of any wider
    /// width (kHashedKeys).
    static constexpr std::size_t kHashedKeys = 3;
    template <std::size_t kKind>
    using KeyKind = std::integral_constant<std::size_t, kKind>;
    /// Calls `f` with the table's KeyKind: the one switch from the
    /// table's width to a row loop compiled for it.
    template <typename F>
    decltype(auto) VisitKeyKind(F&& f) const {
      switch (packed_ ? width_ : kHashedKeys) {
        case 0:
          return f(KeyKind<0>());
        case 1:
          return f(KeyKind<1>());
        case 2:
          return f(KeyKind<2>());
        default:
          return f(KeyKind<kHashedKeys>());
      }
    }

    /// The key word and hash of the row whose column c holds id_at(c),
    /// for a table of kind kKind.
    template <std::size_t kKind, typename IdAt>
    KeyHash KeyHashAs(IdAt id_at) const {
      if constexpr (kKind == kHashedKeys) {
        const std::uint64_t hash = HashRow(id_at);
        return {hash, hash};
      } else {
        std::uint64_t key = 0;
        if constexpr (kKind == 1) key = id_at(0);
        if constexpr (kKind == 2) {
          key = (std::uint64_t{id_at(0)} << 32) | id_at(1);
        }
        return {key, Mix(key)};
      }
    }

    /// Records the row whose column c holds id_at(c) (about to become
    /// row `row_id` of `columns`) unless an equal row is already present;
    /// returns true if inserted. `kh` is KeyHashAs<kKind>(id_at). The
    /// caller appends to `columns` after a true return; probing only
    /// ever dereferences rows below `row_id`. Inline, and defined in
    /// relation.cc: only that file calls it.
    template <std::size_t kKind, typename IdAt>
    inline bool InsertOrFind(const Columns& columns, IdAt id_at, KeyHash kh,
                             std::uint32_t row_id);
    /// Pulls the home group's control bytes and key words of a row with
    /// this hash into cache (no-op before the first insert allocates the
    /// table).
    void Prefetch(std::uint64_t hash) const {
      if (ctrl_.empty()) return;
      const std::size_t first = HomeGroup(hash) * group_match::kGroupWidth;
      __builtin_prefetch(ctrl_.data() + first);
      __builtin_prefetch(keys_.data() + first);
      __builtin_prefetch(keys_.data() + first + 8);
    }
    /// Records row `row_id`, already in `columns`, which the caller
    /// guarantees is distinct from every recorded row: lands in the first
    /// free slot of its probe path without comparing any row.
    void InsertDistinct(const Columns& columns, std::uint32_t row_id);
    /// The row id equal to `ids`, or kNoRow.
    std::uint32_t Find(const Columns& columns,
                       const std::uint32_t* ids) const;
    /// Drops every entry and re-records rows [0, num_rows) of `columns`,
    /// which must be distinct (used after EraseAll compacts them).
    void Rebuild(const Columns& columns, std::size_t num_rows);

    /// Resizes the slot arrays once so `additional` more rows fit under
    /// the 7/8 load factor (no-op when they already do).
    void Reserve(std::size_t additional);

   private:
    /// Locate's "the row is absent".
    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    /// murmur3's fmix64: a bijection that spreads dense dictionary ids
    /// over every bit, the tag's and the home group's alike.
    static std::uint64_t Mix(std::uint64_t x) {
      x ^= x >> 33;
      x *= 0xff51afd7ed558ccdULL;
      x ^= x >> 33;
      x *= 0xc4ceb9fe1a85ec53ULL;
      x ^= x >> 33;
      return x;
    }
    template <typename IdAt>
    std::uint64_t HashRow(IdAt id_at) const {
      std::size_t seed = width_;
      for (std::size_t c = 0; c < width_; ++c) {
        HashCombine(seed, std::hash<std::uint32_t>{}(id_at(c)));
      }
      // HashCombine alone leaves dense, sequential dictionary ids poorly
      // mixed in the low bits, which the tag and the power-of-two group
      // mask both keep.
      return Mix(seed);
    }
    /// The hash of a stored key word: packed rows are mixed, hash words
    /// already are.
    std::uint64_t HashOfKey(std::uint64_t key) const {
      return packed_ ? Mix(key) : key;
    }
    KeyHash StoredKeyHash(const Columns& columns, std::uint32_t row) const {
      return VisitKeyKind([&]<std::size_t kKind>(KeyKind<kKind>) {
        return KeyHashAs<kKind>(
            [&columns, row](std::size_t c) { return columns[c][row]; });
      });
    }
    static std::uint8_t Tag(std::uint64_t hash) {
      return static_cast<std::uint8_t>(hash & 0x7F);
    }
    /// Group count - 1 (the table must be allocated).
    std::size_t GroupMask() const {
      return ctrl_.size() / group_match::kGroupWidth - 1;
    }
    /// The first group on the probe path of `hash`.
    std::size_t HomeGroup(std::uint64_t hash) const {
      return static_cast<std::size_t>(hash >> 7) & GroupMask();
    }
    template <typename IdAt>
    bool RowEquals(const Columns& columns, std::uint32_t row,
                   IdAt id_at) const {
      for (std::size_t c = 0; c < width_; ++c) {
        if (columns[c][row] != id_at(c)) return false;
      }
      return true;
    }
    /// Walks the probe path of `kh`: returns the slot holding the row
    /// equal to id_at's, or kNoSlot with `*free_slot` set to the first
    /// free slot of the first group that has one (where the row would
    /// go). Packed kinds compare key words alone. Inline, and defined in
    /// relation.cc: only that file calls it.
    template <std::size_t kKind, typename IdAt>
    inline std::size_t Locate(const Columns& columns, IdAt id_at, KeyHash kh,
                              std::size_t* free_slot) const;
    /// The first free slot on the probe path of `hash`.
    std::size_t FreeSlot(std::uint64_t hash) const;
    void Place(std::size_t slot, KeyHash kh, std::uint32_t row_id) {
      ctrl_[slot] = Tag(kh.hash);
      keys_[slot] = kh.key;
      rows_[slot] = row_id;
    }
    /// True when one more entry would pass 7/8 of the slots.
    bool Full() const { return (size_ + 1) * 8 > ctrl_.size() * 7; }
    void Grow();
    void ResizeTo(std::size_t new_size);

    std::size_t width_;
    bool packed_;                      // width_ <= 2: keys are the rows
    BlockVector<std::uint8_t> ctrl_;   // one control byte per slot;
                                       // size a power of two, >= 16
    BlockVector<std::uint64_t> keys_;  // key word of each full slot
    BlockVector<std::uint32_t> rows_;  // row id of each full slot
    std::size_t size_ = 0;
  };

  /// Rows a batch inserts before it reserves for the rest of the batch
  /// (see InsertIdRows): enough to read a yield from, and few enough
  /// that the rows reserved for are most of any batch large enough to
  /// grow a table. The reservation is the remaining rows times the
  /// prefix's share of new rows, doubled for a relation that already
  /// held rows, so a misleading prefix over-reserves by up to twice the
  /// rows left.
  static constexpr std::size_t kYieldPrefix = 256;
  /// Pre-sizes the id columns for `additional` more rows about to be
  /// appended, growing at least geometrically. The dedup table is sized
  /// separately.
  void ReserveRows(std::size_t additional);
  /// PostingsIn for a span that does not cover the whole relation.
  static std::span<const std::uint32_t> CutPostings(
      const std::vector<std::uint32_t>& postings, RowSpan rows);
  /// Width check shared by the insert entries.
  void CheckWidth(std::size_t width) const;
  /// The row loop of every insert entry, compiled once per key kind
  /// (called through RowIdTable::VisitKeyKind, so kKind is the table's
  /// kind): inserts `count` rows in order, row r's column c holding
  /// row_ids(r)(c), and returns how many were new. Reserves after
  /// kYieldPrefix rows as InsertIdRows says, and prefetches each row's
  /// home group a few rows ahead of its probe. Defined in relation.cc:
  /// only that file calls it.
  template <std::size_t kKind, typename RowIds>
  std::size_t InsertRowsAs(std::size_t count, RowIds row_ids);
  /// Bulk id-space copy of every row of `src` into this empty relation
  /// (see AddRowRange).
  void CopyIntoEmpty(const Relation& src);

  struct ColumnIndex {
    MultiIndexView::Map map;
    std::size_t built_up_to = 0;  // rows [0, built_up_to) are indexed
  };
  struct SingleColumnIndex {
    SingleIndexView::Map map;
    std::size_t built_up_to = 0;  // rows [0, built_up_to) are indexed
  };
  struct SortedKeyCache {
    std::vector<std::uint32_t> keys;  // sorted distinct ids
    std::size_t built_up_to = 0;      // rows [0, built_up_to) contributed
    // Partial spans, keyed by (begin, end), all computed while the
    // relation held `spans_at` rows.
    std::map<std::pair<std::size_t, std::size_t>, std::vector<std::uint32_t>>
        spans;
    std::size_t spans_at = 0;
  };

  void ExtendIndex(const std::vector<int>& columns, ColumnIndex* index) const;
  void ExtendSingleIndex(int column, SingleColumnIndex* index) const;

  int arity_;
  std::size_t num_rows_ = 0;
  // One contiguous id vector per column -- the only row storage -- plus
  // the allocation-free open-addressing dedup table over those columns.
  std::vector<IdVector> columns_;
  RowIdTable id_table_;
  // Id-keyed postings indexes in ordered maps keyed by column list (or
  // single column); created lazily by Lookup and extended incrementally
  // as rows are appended. EraseAll empties entries in place (instead of
  // erasing the nodes) so outstanding index views stay safely
  // dereferenceable.
  mutable std::map<std::vector<int>, ColumnIndex> indexes_;
  mutable std::map<int, SingleColumnIndex> single_indexes_;
  // Sorted distinct per-column id lists for the multiway plan shape;
  // same in-place invalidation as the indexes.
  mutable std::map<int, SortedKeyCache> sorted_keys_;
};

}  // namespace datalog

#endif  // DATALOG_EVAL_RELATION_H_
