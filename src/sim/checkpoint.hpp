// Checkpoint/resume of full simulation state (ROADMAP "fleet scale-out").
//
// A snapshot is a versioned, CRC-guarded binary file:
//
//   "DRMPSNAP"  8-byte magic
//   u32         format version (kSnapshotVersion; mismatch = refuse, never guess)
//   u64         payload length
//   payload     nested length-prefixed named records (below)
//   u32         CRC-32 over the payload
//
// The payload is a tree of *named records*: [u32 name_len][name bytes]
// [u64 body_len][body]. Every component writes its state inside its own
// record, so a reader that meets a record it does not expect fails loudly
// (UnknownRecordError names it) instead of silently misparsing, and a record
// whose body is not consumed exactly raises RecordOverrunError — no partial
// restores, ever.
//
// Components implement the Snapshottable contract as a matched pair
// save_state(Writer&) / load_state(Reader&), usually through one shared
//   template <class Ar> void persist(Ar& ar) { ar.io(field_); ... }
// so the field list cannot drift between the two directions. Writer::io
// serializes, Reader::io restores; both speak fixed-width little-endian so
// snapshots are stable across hosts.
//
// Snapshots are legal only at quiescent lockstep round edges — exactly where
// the lax-sync causality argument already holds (docs/ARCHITECTURE.md,
// "Checkpoint/resume") — which is why no scheduler wake bookkeeping appears
// in any record: Scheduler::save_state settles every sleeper first, and
// load_state invalidates the wake state, which the next run rebuilds from
// the restored components' quiescence bounds.
#pragma once

#include <array>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace drmp::sim::snap {

inline constexpr char kMagic[8] = {'D', 'R', 'M', 'P', 'S', 'N', 'A', 'P'};
inline constexpr u32 kSnapshotVersion = 2;

// ---- Typed rejection errors (no partial restores) ----

/// Base of every snapshot rejection; tests and tools catch this.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class BadMagicError : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

class BadVersionError : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

class CrcMismatchError : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

/// A record name in the stream does not match what the reader expected —
/// an unknown (or reordered) component. Names both sides.
class UnknownRecordError : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

/// A read crossed a record's length prefix, or a record body was left
/// partially consumed. Names the offending record.
class RecordOverrunError : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

// ---- Writer ----

class Writer {
 public:
  static constexpr bool kLoading = false;

  /// Opens a named length-prefixed record; every begin needs a matching end.
  void begin_record(std::string_view name);
  void end_record();

  // Primitive io: fixed-width little-endian regardless of host.
  template <class T>
    requires(std::is_arithmetic_v<T> || std::is_enum_v<T>)
  void io(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      const u8 b = v ? 1 : 0;
      put(&b, 1);
    } else if constexpr (std::is_same_v<T, double>) {
      u64 bits;
      std::memcpy(&bits, &v, sizeof(bits));
      put_le(bits, 8);
    } else if constexpr (std::is_enum_v<T>) {
      auto u = static_cast<std::underlying_type_t<T>>(v);
      io(u);
    } else {
      put_le(static_cast<u64>(static_cast<std::make_unsigned_t<T>>(v)), sizeof(T));
    }
  }

  void io(std::string& s) {
    u64 n = s.size();
    io(n);
    put(s.data(), s.size());
  }

  void io(Bytes& b) {
    u64 n = b.size();
    io(n);
    put(b.data(), b.size());
  }

  template <class T>
  void io(std::vector<T>& v) {
    u64 n = v.size();
    io(n);
    for (T& e : v) io(e);
  }

  void io(std::vector<bool>& v) {
    u64 n = v.size();
    io(n);
    for (std::size_t i = 0; i < v.size(); ++i) {
      bool b = v[i];
      io(b);
    }
  }

  template <class T>
  void io(std::deque<T>& v) {
    u64 n = v.size();
    io(n);
    for (T& e : v) io(e);
  }

  template <class T, std::size_t N>
  void io(std::array<T, N>& v) {
    for (T& e : v) io(e);
  }

  template <class T>
  void io(std::optional<T>& o) {
    bool has = o.has_value();
    io(has);
    if (has) io(*o);
  }

  template <class A, class B>
  void io(std::pair<A, B>& p) {
    io(p.first);
    io(p.second);
  }

  template <class K, class V>
  void io(std::map<K, V>& m) {
    u64 n = m.size();
    io(n);
    for (auto& [k, v] : m) {
      K key = k;  // map keys are const in place.
      io(key);
      io(v);
    }
  }

  /// Any type carrying its own `template <class Ar> void persist(Ar&)`.
  template <class T>
    requires requires(T& t, Writer& w) { t.persist(w); }
  void io(T& t) {
    t.persist(*this);
  }

  /// Finishes the envelope and writes it atomically: the bytes land in
  /// `path + ".tmp"` first and are renamed over `path`, so a crash mid-write
  /// leaves the previous complete snapshot in place.
  void write_file(const std::string& path) const;

  /// The framed envelope (magic/version/length/payload/CRC) as bytes.
  Bytes envelope() const;

 private:
  void put(const void* p, std::size_t n);
  void put_le(u64 v, std::size_t nbytes);

  Bytes buf_;
  std::vector<std::size_t> open_;  ///< Offsets of body-length fields to patch.
};

// ---- Reader ----

class Reader {
 public:
  static constexpr bool kLoading = true;

  /// Loads and validates the envelope (magic, version, length, CRC); throws
  /// the matching typed error before any component sees a byte.
  explicit Reader(const std::string& path);
  /// Same validation over in-memory bytes (malformed-snapshot tests).
  explicit Reader(Bytes envelope);

  /// Enters the next record, which must carry exactly `name`.
  void expect(std::string_view name);
  /// Leaves the current record; its body must be fully consumed.
  void leave();

  template <class T>
    requires(std::is_arithmetic_v<T> || std::is_enum_v<T>)
  void io(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      u8 b = 0;
      get(&b, 1);
      v = b != 0;
    } else if constexpr (std::is_same_v<T, double>) {
      const u64 bits = get_le(8);
      std::memcpy(&v, &bits, sizeof(v));
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> u{};
      io(u);
      v = static_cast<T>(u);
    } else {
      using U = std::make_unsigned_t<T>;
      v = static_cast<T>(static_cast<U>(get_le(sizeof(T))));
    }
  }

  void io(std::string& s) {
    u64 n = 0;
    io(n);
    s.resize(checked_count(n, 1));
    get(s.data(), s.size());
  }

  void io(Bytes& b) {
    u64 n = 0;
    io(n);
    b.resize(checked_count(n, 1));
    get(b.data(), b.size());
  }

  template <class T>
  void io(std::vector<T>& v) {
    u64 n = 0;
    io(n);
    v.clear();
    v.resize(checked_count(n, 1));
    for (T& e : v) io(e);
  }

  void io(std::vector<bool>& v) {
    u64 n = 0;
    io(n);
    v.assign(checked_count(n, 1), false);
    for (std::size_t i = 0; i < v.size(); ++i) {
      bool b = false;
      io(b);
      v[i] = b;
    }
  }

  template <class T>
  void io(std::deque<T>& v) {
    u64 n = 0;
    io(n);
    v.clear();
    for (u64 i = 0; i < n; ++i) {
      check_remaining(1);
      io(v.emplace_back());
    }
  }

  template <class T, std::size_t N>
  void io(std::array<T, N>& v) {
    for (T& e : v) io(e);
  }

  template <class T>
  void io(std::optional<T>& o) {
    bool has = false;
    io(has);
    if (has) {
      io(o.emplace());
    } else {
      o.reset();
    }
  }

  template <class A, class B>
  void io(std::pair<A, B>& p) {
    io(p.first);
    io(p.second);
  }

  template <class K, class V>
  void io(std::map<K, V>& m) {
    u64 n = 0;
    io(n);
    m.clear();
    for (u64 i = 0; i < n; ++i) {
      check_remaining(1);
      K key{};
      io(key);
      io(m[key]);
    }
  }

  template <class T>
    requires requires(T& t, Reader& r) { t.persist(r); }
  void io(T& t) {
    t.persist(*this);
  }

  /// True once the payload (or the current record body) is fully consumed.
  bool at_end() const noexcept;

 private:
  void validate_envelope(const Bytes& file);
  void get(void* p, std::size_t n);
  u64 get_le(std::size_t nbytes);
  /// Element-count sanity: a count whose minimal encoding would overrun the
  /// current bound is corrupt — reject before allocating.
  std::size_t checked_count(u64 n, std::size_t elem_min_bytes);
  void check_remaining(std::size_t n);
  std::size_t bound() const noexcept;
  std::string where() const;

  Bytes payload_;
  std::size_t pos_ = 0;
  struct Rec {
    std::string name;
    std::size_t end;
  };
  std::vector<Rec> stack_;
};

/// Direction-agnostic record scoping, so one shared persist body can nest
/// named records: maps to begin_record/end_record when writing and to the
/// strict expect/leave pair when reading.
template <class Ar>
void open_record(Ar& ar, std::string_view name) {
  if constexpr (Ar::kLoading) {
    ar.expect(name);
  } else {
    ar.begin_record(name);
  }
}

template <class Ar>
void close_record(Ar& ar) {
  if constexpr (Ar::kLoading) {
    ar.leave();
  } else {
    ar.end_record();
  }
}

/// The Snapshottable contract: anything that owns mutable simulation state
/// restorable at a quiescent round edge. Most components implement the pair
/// directly (no virtual dispatch needed along ownership trees); the
/// interface exists for containers that hold components behind one type.
class Snapshottable {
 public:
  virtual ~Snapshottable() = default;
  virtual void save_state(Writer& w) = 0;
  virtual void load_state(Reader& r) = 0;
};

}  // namespace drmp::sim::snap
