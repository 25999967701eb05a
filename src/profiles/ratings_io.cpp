#include "profiles/ratings_io.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <queue>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "util/fnv.h"

namespace knnpc {

namespace {

using Kind = RatingsError::Kind;

[[nodiscard]] RatingsError err(Kind kind, std::size_t line, std::string msg) {
  if (line != 0) msg += " (line " + std::to_string(line) + ")";
  return RatingsError(kind, line, msg);
}

bool is_sep(char c) { return c == ',' || c == '\t' || c == ' '; }

std::uint64_t parse_id(std::string_view token, std::size_t lineno,
                       const char* what) {
  std::uint64_t value = 0;
  // from_chars on an unsigned type rejects signs, spaces and non-digits;
  // requiring full consumption rejects "12abc".
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec == std::errc::result_out_of_range) {
    throw err(Kind::MalformedLine, lineno,
              std::string("ratings: ") + what + " id overflows 64 bits: " +
                  std::string(token));
  }
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    throw err(Kind::MalformedLine, lineno,
              std::string("ratings: bad ") + what + " id: " +
                  std::string(token));
  }
  return value;
}

float parse_weight(std::string_view token, std::size_t lineno) {
  float value = 0.0f;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec == std::errc::result_out_of_range) {
    throw err(Kind::BadWeight, lineno,
              "ratings: rating out of float range: " + std::string(token));
  }
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    throw err(Kind::MalformedLine, lineno,
              "ratings: bad rating value: " + std::string(token));
  }
  if (!std::isfinite(value)) {
    throw err(Kind::BadWeight, lineno,
              "ratings: non-finite rating: " + std::string(token));
  }
  return value;
}

}  // namespace

std::optional<ParsedRating> parse_rating_line(std::string_view line,
                                              std::size_t lineno) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (line.size() > kMaxRatingLineBytes) {
    throw err(Kind::LineTooLong, lineno,
              "ratings: line exceeds " + std::to_string(kMaxRatingLineBytes) +
                  " bytes");
  }
  std::size_t pos = 0;
  while (pos < line.size() && is_sep(line[pos])) ++pos;
  if (pos == line.size()) return std::nullopt;
  if (line[pos] == '#' || line[pos] == '%') return std::nullopt;

  std::array<std::string_view, 4> tokens;
  std::size_t count = 0;
  while (pos < line.size()) {
    const std::size_t start = pos;
    while (pos < line.size() && !is_sep(line[pos])) ++pos;
    if (count < tokens.size()) tokens[count] = line.substr(start, pos - start);
    ++count;
    while (pos < line.size() && is_sep(line[pos])) ++pos;
  }
  if (count < 3 || count > 4) {
    throw err(Kind::MalformedLine, lineno,
              "ratings: expected 'user item rating [extra]', got " +
                  std::to_string(count) + " fields");
  }
  ParsedRating parsed;
  parsed.user = parse_id(tokens[0], lineno, "user");
  parsed.item = parse_id(tokens[1], lineno, "item");
  parsed.rating = parse_weight(tokens[2], lineno);
  return parsed;
}

RatingsData load_ratings(std::istream& in) {
  RatingsData data;
  std::unordered_map<std::uint64_t, VertexId> user_remap;
  std::unordered_map<std::uint64_t, ItemId> item_remap;
  // Entries per user, merged into profiles at the end (last rating wins,
  // implemented by overwriting in a per-user map).
  std::vector<std::unordered_map<ItemId, float>> entries;

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto parsed = parse_rating_line(line, lineno);
    if (!parsed) continue;
    auto [user_it, new_user] = user_remap.try_emplace(
        parsed->user, static_cast<VertexId>(user_remap.size()));
    if (new_user) {
      data.user_ids.push_back(parsed->user);
      entries.emplace_back();
    }
    auto [item_it, new_item] = item_remap.try_emplace(
        parsed->item, static_cast<ItemId>(item_remap.size()));
    if (new_item) data.item_ids.push_back(parsed->item);
    entries[user_it->second][item_it->second] = parsed->rating;
    ++data.num_ratings;
  }

  data.profiles.reserve(entries.size());
  for (const auto& user_entries : entries) {
    std::vector<ProfileEntry> list;
    list.reserve(user_entries.size());
    for (const auto& [item, rating] : user_entries) {
      list.push_back({item, rating});
    }
    data.profiles.emplace_back(std::move(list));
  }
  return data;
}

RatingsData load_ratings_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw err(Kind::Io, 0, "load_ratings_file: cannot open " + path);
  }
  return load_ratings(in);
}

void save_ratings(std::ostream& out, const RatingsData& data) {
  out << "# knnpc ratings: " << data.profiles.size() << " users\n";
  for (VertexId u = 0; u < data.profiles.size(); ++u) {
    const std::uint64_t raw_user =
        u < data.user_ids.size() ? data.user_ids[u] : u;
    for (const ProfileEntry& e : data.profiles[u].entries()) {
      const std::uint64_t raw_item =
          e.item < data.item_ids.size() ? data.item_ids[e.item] : e.item;
      out << raw_user << ',' << raw_item << ',' << e.weight << '\n';
    }
  }
}

void save_ratings_file(const std::string& path, const RatingsData& data) {
  std::ofstream out(path);
  if (!out) {
    throw err(Kind::Io, 0, "save_ratings_file: cannot open " + path);
  }
  save_ratings(out, data);
}

// ---------------------------------------------------------------------------
// Out-of-core ingestion.

namespace {

// One parsed rating in spill-run form. `seq` is the global data-line
// ordinal: runs sort by (user, item, seq), so after the merge the records
// of one (user, item) pair are adjacent in arrival order and last-wins
// dedup is "keep the final record of each equal group".
struct RawRecord {
  std::uint64_t user = 0;
  std::uint64_t seq = 0;
  ItemId item = 0;
  float weight = 0.0f;
};

inline constexpr std::size_t kRecordBytes = 8 + 8 + 4 + 4;

bool record_less(const RawRecord& a, const RawRecord& b) {
  return std::tie(a.user, a.item, a.seq) < std::tie(b.user, b.item, b.seq);
}

// Explicit little-endian (de)serialisation, matching the library's other
// wire formats: byte layout is pinned, not host-dependent.
void put_u32(std::string& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

void put_u64(std::string& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

void put_f32(std::string& buf, float v) {
  put_u32(buf, std::bit_cast<std::uint32_t>(v));
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

float get_f32(const char* p) { return std::bit_cast<float>(get_u32(p)); }

std::uint64_t fnv1a_string(std::uint64_t h, const std::string& buf) {
  for (const char c : buf) {
    h = (h ^ static_cast<std::uint64_t>(static_cast<unsigned char>(c))) *
        kFnv1aPrime;
  }
  return h;
}

inline constexpr std::uint32_t kStoreMagic = 0x5352504bu;  // "KPRS"
inline constexpr std::uint32_t kStoreVersion = 1;
inline constexpr std::size_t kStoreHeaderBytes = 4 + 4;
// users, num_items, ratings, duplicates, body checksum, trailing magic.
inline constexpr std::size_t kStoreFooterBytes = 5 * 8 + 4;

void read_exact(std::istream& in, char* dst, std::size_t n,
                const std::string& path) {
  in.read(dst, static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(in.gcount()) != n) {
    throw err(in.bad() ? Kind::Io : Kind::Truncated, 0,
              "profile store " + path + ": unexpected end of file");
  }
}

// Streams spill-run records back out of the shared runs file, with a
// bounded refill buffer per run.
class RunCursor {
 public:
  RunCursor(const std::string& path, std::uint64_t offset,
            std::uint64_t records, std::size_t buffer_records)
      : in_(path, std::ios::binary),
        remaining_(records),
        buffer_records_(std::max<std::size_t>(buffer_records, 16)) {
    if (!in_) throw err(Kind::Io, 0, "ingest: cannot reopen run file " + path);
    in_.seekg(static_cast<std::streamoff>(offset));
    refill();
  }

  [[nodiscard]] bool empty() const { return pos_ == buffer_.size(); }
  [[nodiscard]] const RawRecord& head() const { return buffer_[pos_]; }

  void pop() {
    ++pos_;
    if (pos_ == buffer_.size()) refill();
  }

 private:
  void refill() {
    buffer_.clear();
    pos_ = 0;
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(
            remaining_, static_cast<std::uint64_t>(buffer_records_)));
    if (want == 0) return;
    raw_.resize(want * kRecordBytes);
    in_.read(raw_.data(), static_cast<std::streamsize>(raw_.size()));
    if (static_cast<std::size_t>(in_.gcount()) != raw_.size()) {
      throw err(Kind::Io, 0, "ingest: short read from run file");
    }
    buffer_.resize(want);
    for (std::size_t i = 0; i < want; ++i) {
      const char* p = raw_.data() + i * kRecordBytes;
      buffer_[i].user = get_u64(p);
      buffer_[i].seq = get_u64(p + 8);
      buffer_[i].item = get_u32(p + 16);
      buffer_[i].weight = get_f32(p + 20);
    }
    remaining_ -= want;
  }

  std::ifstream in_;
  std::uint64_t remaining_;
  std::size_t buffer_records_;
  std::vector<char> raw_;
  std::vector<RawRecord> buffer_;
  std::size_t pos_ = 0;
};

// Writes the packed profile store, grouping the already-sorted,
// already-deduped record stream by user and keeping a running FNV-1a over
// the body so the footer checksum costs no second pass.
class StoreWriter {
 public:
  explicit StoreWriter(const std::string& path) : path_(path) {
    out_.open(path, std::ios::binary | std::ios::trunc);
    if (!out_) throw err(Kind::Io, 0, "ingest: cannot open store " + path);
    std::string header;
    put_u32(header, kStoreMagic);
    put_u32(header, kStoreVersion);
    out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  }

  void add(const RawRecord& record) {
    if (!has_user_ || record.user != current_user_) {
      flush_user();
      current_user_ = record.user;
      has_user_ = true;
    }
    entries_.emplace_back(record.item, record.weight);
  }

  /// Largest per-user entry buffer held so far, for peak accounting.
  [[nodiscard]] std::size_t max_user_bytes() const {
    return max_user_entries_ * sizeof(std::pair<ItemId, float>);
  }

  ProfileStoreInfo finish(std::uint64_t num_items, std::uint64_t duplicates) {
    flush_user();
    std::string footer;
    put_u64(footer, users_);
    put_u64(footer, num_items);
    put_u64(footer, ratings_);
    put_u64(footer, duplicates);
    put_u64(footer, body_fnv_);
    put_u32(footer, kStoreMagic);
    out_.write(footer.data(), static_cast<std::streamsize>(footer.size()));
    out_.flush();
    if (!out_) throw err(Kind::Io, 0, "ingest: write failed on " + path_);
    ProfileStoreInfo info;
    info.users = static_cast<VertexId>(users_);
    info.num_items = num_items;
    info.ratings = ratings_;
    info.duplicates = duplicates;
    return info;
  }

 private:
  void flush_user() {
    if (!has_user_) return;
    buf_.clear();
    put_u64(buf_, current_user_);
    put_u32(buf_, static_cast<std::uint32_t>(entries_.size()));
    for (const auto& [item, weight] : entries_) {
      put_u32(buf_, item);
      put_f32(buf_, weight);
    }
    body_fnv_ = fnv1a_string(body_fnv_, buf_);
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    ++users_;
    ratings_ += entries_.size();
    max_user_entries_ = std::max(max_user_entries_, entries_.size());
    entries_.clear();
  }

  std::string path_;
  std::ofstream out_;
  std::string buf_;
  std::vector<std::pair<ItemId, float>> entries_;
  std::uint64_t current_user_ = 0;
  bool has_user_ = false;
  std::uint64_t users_ = 0;
  std::uint64_t ratings_ = 0;
  std::uint64_t body_fnv_ = kFnv1aOffset;
  std::size_t max_user_entries_ = 0;
};

// Feeds the sorted merged stream through last-wins dedup into the writer.
class DedupSink {
 public:
  explicit DedupSink(StoreWriter& writer) : writer_(writer) {}

  void add(const RawRecord& record) {
    if (has_pending_ && pending_.user == record.user &&
        pending_.item == record.item) {
      ++duplicates_;  // later seq supersedes the pending rating
    } else if (has_pending_) {
      writer_.add(pending_);
    }
    pending_ = record;
    has_pending_ = true;
  }

  [[nodiscard]] std::uint64_t finish() {
    if (has_pending_) writer_.add(pending_);
    has_pending_ = false;
    return duplicates_;
  }

 private:
  StoreWriter& writer_;
  RawRecord pending_;
  bool has_pending_ = false;
  std::uint64_t duplicates_ = 0;
};

}  // namespace

OutOfCoreIngestStats ingest_ratings_file(const std::string& ratings_path,
                                         const std::string& store_path,
                                         const OutOfCoreIngestConfig& config) {
  const std::size_t budget =
      std::max(config.memory_budget_bytes, kMinIngestBudgetBytes);
  std::ifstream in(ratings_path, std::ios::binary);
  if (!in) throw err(Kind::Io, 0, "ingest: cannot open " + ratings_path);

  OutOfCoreIngestStats stats;

  // Budget split: a chunk read buffer, the sorted-run record buffer, and a
  // slack eighth kept back for the merge phase's per-run refill buffers and
  // the store writer's per-user scratch.
  const std::size_t read_buf_bytes =
      std::clamp<std::size_t>(budget / 16, std::size_t{64} << 10,
                              std::size_t{1} << 20);
  const std::size_t slack_bytes = budget / 8;
  const std::size_t record_capacity = std::max<std::size_t>(
      (budget - read_buf_bytes - slack_bytes) / kRecordBytes, 1024);

  const std::string runs_path =
      config.work_dir.empty() ? store_path + ".runs"
                              : config.work_dir + "/knnpc_ingest.runs";

  std::vector<RawRecord> records;
  records.reserve(record_capacity);

  std::ofstream runs_out;
  struct RunExtent {
    std::uint64_t offset = 0;
    std::uint64_t records = 0;
  };
  std::vector<RunExtent> run_index;
  std::uint64_t runs_bytes = 0;
  std::string spill_buf;

  const auto note_peak = [&](std::size_t phase_bytes) {
    stats.peak_memory_bytes = std::max(stats.peak_memory_bytes, phase_bytes);
  };
  // Parse-phase working set: fixed chunk buffer + fixed record buffer +
  // the bounded line-carry scratch + the bounded spill batch buffer.
  note_peak(read_buf_bytes + record_capacity * sizeof(RawRecord) +
            kMaxRatingLineBytes + 4096 * kRecordBytes);

  // Spill serialisation happens in bounded batches: a whole-run staging
  // buffer would double the record buffer's footprint and bust the budget.
  constexpr std::size_t kSpillBatchRecords = 4096;
  const auto spill_run = [&]() {
    if (records.empty()) return;
    std::sort(records.begin(), records.end(), record_less);
    if (!runs_out.is_open()) {
      runs_out.open(runs_path, std::ios::binary | std::ios::trunc);
      if (!runs_out) {
        throw err(Kind::Io, 0, "ingest: cannot open run file " + runs_path);
      }
    }
    std::uint64_t written = 0;
    for (std::size_t base = 0; base < records.size();
         base += kSpillBatchRecords) {
      const std::size_t end =
          std::min(records.size(), base + kSpillBatchRecords);
      spill_buf.clear();
      for (std::size_t i = base; i < end; ++i) {
        const RawRecord& r = records[i];
        put_u64(spill_buf, r.user);
        put_u64(spill_buf, r.seq);
        put_u32(spill_buf, r.item);
        put_f32(spill_buf, r.weight);
      }
      runs_out.write(spill_buf.data(),
                     static_cast<std::streamsize>(spill_buf.size()));
      written += spill_buf.size();
    }
    if (!runs_out) {
      throw err(Kind::Io, 0, "ingest: write failed on " + runs_path);
    }
    run_index.push_back({runs_bytes,
                         static_cast<std::uint64_t>(records.size())});
    runs_bytes += written;
    stats.bytes_spilled += written;
    records.clear();
  };

  std::uint64_t max_item_plus_one = 0;
  std::size_t lineno = 0;
  std::uint64_t seq = 0;

  const auto process_line = [&](std::string_view line) {
    ++lineno;
    const auto parsed = parse_rating_line(line, lineno);
    if (!parsed) return;
    ++stats.lines;
    if (parsed->item > std::numeric_limits<ItemId>::max()) {
      throw err(Kind::OutOfRangeId, lineno,
                "ingest: item id " + std::to_string(parsed->item) +
                    " does not fit ItemId (out-of-core keeps raw item ids)");
    }
    RawRecord record;
    record.user = parsed->user;
    record.seq = seq++;
    record.item = static_cast<ItemId>(parsed->item);
    record.weight = parsed->rating;
    max_item_plus_one =
        std::max(max_item_plus_one, static_cast<std::uint64_t>(record.item) + 1);
    records.push_back(record);
    if (records.size() >= record_capacity) spill_run();
  };

  // Chunked line reader: fixed-size reads, a carry buffer for the line
  // fragment spanning a chunk boundary, bounded by kMaxRatingLineBytes.
  std::vector<char> chunk(read_buf_bytes);
  std::string carry;
  for (;;) {
    in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    const auto got = static_cast<std::size_t>(in.gcount());
    if (got == 0) break;
    std::string_view view(chunk.data(), got);
    std::size_t start = 0;
    while (start < view.size()) {
      const std::size_t nl = view.find('\n', start);
      if (nl == std::string_view::npos) {
        carry.append(view.substr(start));
        if (carry.size() > kMaxRatingLineBytes + 2) {
          throw err(Kind::LineTooLong, lineno + 1,
                    "ingest: line exceeds " +
                        std::to_string(kMaxRatingLineBytes) + " bytes");
        }
        break;
      }
      if (carry.empty()) {
        process_line(view.substr(start, nl - start));
      } else {
        carry.append(view.substr(start, nl - start));
        process_line(carry);
        carry.clear();
      }
      start = nl + 1;
    }
    if (!in) break;
  }
  if (in.bad()) throw err(Kind::Io, 0, "ingest: read failed on " + ratings_path);
  if (!carry.empty()) {
    process_line(carry);
    carry.clear();
  }

  stats.num_items = max_item_plus_one;
  StoreWriter writer(store_path);
  DedupSink sink(writer);

  if (run_index.empty()) {
    // The whole file fit in one in-memory run: sort and stream it straight
    // into the store, no spill round-trip.
    std::sort(records.begin(), records.end(), record_less);
    for (const RawRecord& r : records) sink.add(r);
    stats.runs = records.empty() ? 0 : 1;
  } else {
    spill_run();
    runs_out.close();  // flushes the last run's buffered tail
    if (!runs_out) {
      throw err(Kind::Io, 0, "ingest: write failed on " + runs_path);
    }
    stats.runs = run_index.size();
    // Free the parse-phase record buffer before standing up merge cursors.
    records.clear();
    records.shrink_to_fit();

    // Each cursor holds both a raw byte buffer and the parsed records, so
    // size them on the combined per-record footprint to keep the merge
    // phase's total refill memory within half the budget.
    const std::size_t per_run_records = std::max<std::size_t>(
        (budget / 2) /
            (run_index.size() * (sizeof(RawRecord) + kRecordBytes)),
        16);
    std::vector<std::unique_ptr<RunCursor>> cursors;
    cursors.reserve(run_index.size());
    for (const RunExtent& extent : run_index) {
      cursors.push_back(std::make_unique<RunCursor>(
          runs_path, extent.offset, extent.records, per_run_records));
    }
    note_peak(run_index.size() * per_run_records *
                  (sizeof(RawRecord) + kRecordBytes) +
              writer.max_user_bytes());

    const auto cursor_greater = [&](std::size_t a, std::size_t b) {
      return record_less(cursors[b]->head(), cursors[a]->head());
    };
    std::priority_queue<std::size_t, std::vector<std::size_t>,
                        decltype(cursor_greater)>
        heap(cursor_greater);
    for (std::size_t i = 0; i < cursors.size(); ++i) {
      if (!cursors[i]->empty()) heap.push(i);
    }
    while (!heap.empty()) {
      const std::size_t idx = heap.top();
      heap.pop();
      sink.add(cursors[idx]->head());
      cursors[idx]->pop();
      if (!cursors[idx]->empty()) heap.push(idx);
    }
    std::remove(runs_path.c_str());
  }

  stats.duplicates = sink.finish();
  const ProfileStoreInfo info =
      writer.finish(stats.num_items, stats.duplicates);
  stats.ratings = info.ratings;
  stats.users = info.users;
  note_peak(writer.max_user_bytes() + read_buf_bytes);
  return stats;
}

ProfileStoreInfo read_profile_store(
    const std::string& store_path,
    const std::function<void(VertexId, std::uint64_t, SparseProfile)>& fn) {
  std::ifstream in(store_path, std::ios::binary);
  if (!in) throw err(Kind::Io, 0, "profile store: cannot open " + store_path);
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  if (file_size < kStoreHeaderBytes + kStoreFooterBytes) {
    throw err(Kind::Truncated, 0,
              "profile store " + store_path + ": too short for header+footer");
  }
  in.seekg(0);
  std::array<char, kStoreHeaderBytes> header{};
  read_exact(in, header.data(), header.size(), store_path);
  if (get_u32(header.data()) != kStoreMagic) {
    throw err(Kind::Corrupt, 0,
              "profile store " + store_path + ": bad magic");
  }
  if (get_u32(header.data() + 4) != kStoreVersion) {
    throw err(Kind::Corrupt, 0,
              "profile store " + store_path + ": unsupported version");
  }

  in.seekg(static_cast<std::streamoff>(file_size - kStoreFooterBytes));
  std::array<char, kStoreFooterBytes> footer{};
  read_exact(in, footer.data(), footer.size(), store_path);
  if (get_u32(footer.data() + 40) != kStoreMagic) {
    throw err(Kind::Corrupt, 0,
              "profile store " + store_path + ": bad trailing magic");
  }
  ProfileStoreInfo info;
  const std::uint64_t footer_users = get_u64(footer.data());
  if (footer_users > std::numeric_limits<VertexId>::max()) {
    throw err(Kind::Corrupt, 0,
              "profile store " + store_path + ": user count overflows");
  }
  info.users = static_cast<VertexId>(footer_users);
  info.num_items = get_u64(footer.data() + 8);
  info.ratings = get_u64(footer.data() + 16);
  info.duplicates = get_u64(footer.data() + 24);
  const std::uint64_t expect_fnv = get_u64(footer.data() + 32);

  in.seekg(kStoreHeaderBytes);
  std::uint64_t remaining = file_size - kStoreHeaderBytes - kStoreFooterBytes;
  std::uint64_t fnv = kFnv1aOffset;
  std::vector<char> buf;
  VertexId dense = 0;
  while (remaining > 0) {
    if (remaining < 12) {
      throw err(Kind::Truncated, 0,
                "profile store " + store_path + ": record header cut short");
    }
    std::array<char, 12> rec_header{};
    read_exact(in, rec_header.data(), rec_header.size(), store_path);
    const std::uint64_t raw_user = get_u64(rec_header.data());
    const std::uint32_t count = get_u32(rec_header.data() + 8);
    remaining -= 12;
    const std::uint64_t entry_bytes = static_cast<std::uint64_t>(count) * 8;
    if (entry_bytes > remaining) {
      throw err(Kind::Truncated, 0,
                "profile store " + store_path + ": entries cut short");
    }
    buf.resize(static_cast<std::size_t>(entry_bytes));
    read_exact(in, buf.data(), buf.size(), store_path);
    remaining -= entry_bytes;
    for (const char c : rec_header) {
      fnv = (fnv ^ static_cast<std::uint64_t>(static_cast<unsigned char>(c))) *
            kFnv1aPrime;
    }
    for (const char c : buf) {
      fnv = (fnv ^ static_cast<std::uint64_t>(static_cast<unsigned char>(c))) *
            kFnv1aPrime;
    }
    std::vector<ProfileEntry> entries;
    entries.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const char* p = buf.data() + static_cast<std::size_t>(i) * 8;
      entries.push_back({get_u32(p), get_f32(p + 4)});
    }
    if (fn) fn(dense, raw_user, SparseProfile(std::move(entries)));
    ++dense;
  }
  if (dense != info.users) {
    throw err(Kind::Corrupt, 0,
              "profile store " + store_path + ": footer claims " +
                  std::to_string(info.users) + " users, body holds " +
                  std::to_string(dense));
  }
  if (fnv != expect_fnv) {
    throw err(Kind::Corrupt, 0,
              "profile store " + store_path + ": body checksum mismatch");
  }
  return info;
}

RatingsData load_profile_store(const std::string& store_path) {
  RatingsData data;
  const ProfileStoreInfo info = read_profile_store(
      store_path,
      [&](VertexId, std::uint64_t raw_user, SparseProfile profile) {
        data.user_ids.push_back(raw_user);
        data.profiles.push_back(std::move(profile));
      });
  data.item_ids.resize(static_cast<std::size_t>(info.num_items));
  for (std::size_t i = 0; i < data.item_ids.size(); ++i) data.item_ids[i] = i;
  data.num_ratings = static_cast<std::size_t>(info.ratings);
  return data;
}

RatingsData synthetic_ratings(const SyntheticRatingsConfig& config,
                              Rng& rng) {
  if (config.num_items == 0 || config.rating_levels == 0) {
    throw std::invalid_argument("synthetic_ratings: bad config");
  }
  if (config.min_ratings > config.max_ratings) {
    throw std::invalid_argument("synthetic_ratings: min > max ratings");
  }
  // Zipf CDF over items.
  std::vector<double> cdf(config.num_items);
  double acc = 0.0;
  for (ItemId i = 0; i < config.num_items; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1),
                          config.popularity_alpha);
    cdf[i] = acc;
  }
  RatingsData data;
  data.profiles.reserve(config.num_users);
  data.user_ids.resize(config.num_users);
  data.item_ids.resize(config.num_items);
  for (VertexId u = 0; u < config.num_users; ++u) data.user_ids[u] = u;
  for (ItemId i = 0; i < config.num_items; ++i) data.item_ids[i] = i;

  std::unordered_set<ItemId> picked;
  for (VertexId u = 0; u < config.num_users; ++u) {
    const std::uint32_t span = config.max_ratings - config.min_ratings + 1;
    const std::uint32_t want = std::min<std::uint32_t>(
        config.min_ratings + static_cast<std::uint32_t>(rng.next_below(span)),
        config.num_items);
    picked.clear();
    std::vector<ProfileEntry> list;
    list.reserve(want);
    std::size_t guard = 0;
    while (list.size() < want && guard++ < 100000) {
      const double r = rng.next_double() * acc;
      const auto it = std::lower_bound(cdf.begin(), cdf.end(), r);
      const auto item = static_cast<ItemId>(it - cdf.begin());
      if (!picked.insert(item).second) continue;
      const float stars = static_cast<float>(
          1 + rng.next_below(config.rating_levels));
      list.push_back({item, stars});
      ++data.num_ratings;
    }
    data.profiles.emplace_back(std::move(list));
  }
  return data;
}

}  // namespace knnpc
