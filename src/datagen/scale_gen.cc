#include "datagen/scale_gen.h"

#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "datagen/wordlists.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "relational/csv.h"
#include "relational/sample.h"

namespace csm {
namespace {

/// Seed of chunk `chunk` of stream `tag`: folds the tag and index into the
/// dataset seed so every chunk draws an independent reproducible stream
/// regardless of which worker generates it.
uint64_t ChunkSeed(uint64_t seed, const char* tag, size_t chunk) {
  return DeriveTableSampleSeed(seed, StrFormat("%s/%zu", tag, chunk));
}

/// Generates a table by independently seeded chunks on `pool` and merges
/// them in chunk order.  `fill(chunk_table, first_row, num_rows, rng)`
/// appends exactly `num_rows` rows.
template <typename Fill>
Table GenerateChunked(const TableSchema& schema, size_t total_rows,
                      size_t rows_per_chunk, uint64_t seed, const char* tag,
                      exec::ThreadPool* pool, const Fill& fill) {
  CSM_CHECK_GT(rows_per_chunk, 0u);
  const size_t num_chunks = (total_rows + rows_per_chunk - 1) / rows_per_chunk;
  std::vector<Table> chunks =
      exec::ParallelMap(pool, num_chunks, [&](size_t c) {
        const size_t first = c * rows_per_chunk;
        const size_t rows = std::min(rows_per_chunk, total_rows - first);
        Rng rng(ChunkSeed(seed, tag, c));
        Table chunk(schema);
        chunk.Reserve(rows);
        fill(&chunk, first, rows, rng);
        return chunk;
      });
  Table out(schema);
  out.Reserve(total_rows);
  for (const Table& chunk : chunks) out.AppendRowsFrom(chunk);
  return out;
}

/// Borrows options.pool, or spins up a private pool when the generation is
/// actually parallel (threads > 1 and more than one chunk of work).
struct PoolHandle {
  exec::ThreadPool* pool = nullptr;
  std::unique_ptr<exec::ThreadPool> owned;
};

PoolHandle ResolvePool(exec::ThreadPool* borrowed, size_t threads,
                       size_t num_chunks) {
  PoolHandle handle;
  if (borrowed != nullptr) {
    handle.pool = borrowed;
    return handle;
  }
  const size_t effective = exec::EffectiveThreads(threads);
  if (effective > 1 && num_chunks > 1) {
    handle.owned = std::make_unique<exec::ThreadPool>(effective);
    handle.pool = handle.owned.get();
  }
  return handle;
}

// Item field generation — same distributions as retail_gen.cc.
struct ItemFields {
  std::string title;
  std::string creator;
  double price;
  std::string code;
  int64_t year;
};

ItemFields MakeBook(Rng& rng) {
  ItemFields f;
  f.title = MakeBookTitle(rng);
  f.creator = MakePersonName(rng);
  f.price = 5.0 + rng.NextDouble() * 40.0;
  f.code = MakeIsbn(rng);
  f.year = rng.NextInt(1950, 2024);
  return f;
}

ItemFields MakeCd(Rng& rng) {
  ItemFields f;
  f.title = MakeAlbumTitle(rng);
  f.creator = MakeBandName(rng);
  f.price = 8.0 + rng.NextDouble() * 12.0;
  f.code = MakeUpc(rng);
  f.year = rng.NextInt(1950, 2024);
  return f;
}

double RoundPrice(double price) {
  return static_cast<double>(static_cast<int64_t>(price * 100.0 + 0.5)) /
         100.0;
}

double MakeGrade(size_t exam, double sigma, Rng& rng) {
  double grade =
      rng.NextGaussian(40.0 + 10.0 * static_cast<double>(exam - 1), sigma);
  grade = std::max(0.0, std::min(100.0, grade));
  return static_cast<double>(static_cast<int64_t>(grade * 10.0 + 0.5)) / 10.0;
}

}  // namespace

RetailDataset MakeScaleRetailDataset(const ScaleRetailOptions& options) {
  CSM_CHECK_GE(options.gamma, 2u);
  CSM_CHECK_EQ(options.gamma % 2, 0u) << "gamma must be even";
  RetailDataset out;

  const size_t labels_per_kind = options.gamma / 2;
  for (size_t i = 1; i <= labels_per_kind; ++i) {
    out.book_labels.push_back(Value::String(StrFormat("Book%zu", i)));
    out.cd_labels.push_back(Value::String(StrFormat("CD%zu", i)));
  }

  const size_t target_rows = options.target_rows_per_table > 0
                                 ? options.target_rows_per_table
                                 : std::max<size_t>(1, options.source_rows / 2);
  const size_t source_chunks =
      (options.source_rows + options.rows_per_chunk - 1) /
      options.rows_per_chunk;
  PoolHandle pool =
      ResolvePool(options.pool, options.threads, source_chunks);

  // ---- Source: inventory ----------------------------------------------
  TableSchema source_schema("inventory");
  source_schema.AddAttribute("ItemID", ValueType::kInt);
  source_schema.AddAttribute("ItemType", ValueType::kString);
  source_schema.AddAttribute("Title", ValueType::kString);
  source_schema.AddAttribute("Creator", ValueType::kString);
  source_schema.AddAttribute("Price", ValueType::kReal);
  source_schema.AddAttribute("Code", ValueType::kString);
  source_schema.AddAttribute("PubYear", ValueType::kInt);
  source_schema.AddAttribute("StockStatus", ValueType::kString);

  static constexpr const char* kStockLevels[] = {"Low", "Normal", "High"};

  Table source_table = GenerateChunked(
      source_schema, options.source_rows, options.rows_per_chunk,
      options.seed, "inventory", pool.pool,
      [&](Table* chunk, size_t first, size_t rows, Rng& rng) {
        for (size_t r = 0; r < rows; ++r) {
          const bool is_book = rng.NextBernoulli(0.5);
          const Value& label =
              is_book
                  ? out.book_labels[rng.NextBounded(out.book_labels.size())]
                  : out.cd_labels[rng.NextBounded(out.cd_labels.size())];
          ItemFields fields = is_book ? MakeBook(rng) : MakeCd(rng);
          Row row;
          row.push_back(Value::Int(static_cast<int64_t>(10000 + first + r)));
          row.push_back(label);
          row.push_back(Value::String(fields.title));
          row.push_back(Value::String(fields.creator));
          row.push_back(Value::Real(RoundPrice(fields.price)));
          row.push_back(Value::String(fields.code));
          row.push_back(Value::Int(fields.year));
          row.push_back(Value::String(kStockLevels[rng.NextBounded(3)]));
          chunk->AddRow(std::move(row));
        }
      });
  out.source = Database("source");
  out.source.AddTable(std::move(source_table));

  // ---- Targets: Book / Music (Ryan_Eyers names) ------------------------
  auto make_target = [&](const char* table_name,
                         const char* const attrs[6], bool books) {
    TableSchema schema(table_name);
    schema.AddAttribute(attrs[0], ValueType::kInt);
    schema.AddAttribute(attrs[1], ValueType::kString);
    schema.AddAttribute(attrs[2], ValueType::kString);
    schema.AddAttribute(attrs[3], ValueType::kReal);
    schema.AddAttribute(attrs[4], ValueType::kString);
    schema.AddAttribute(attrs[5], ValueType::kInt);
    return GenerateChunked(
        schema, target_rows, options.rows_per_chunk, options.seed, table_name,
        pool.pool, [&](Table* chunk, size_t first, size_t rows, Rng& rng) {
          for (size_t r = 0; r < rows; ++r) {
            ItemFields fields = books ? MakeBook(rng) : MakeCd(rng);
            Row row;
            row.push_back(
                Value::Int(static_cast<int64_t>(50000 + first + r)));
            row.push_back(Value::String(fields.title));
            row.push_back(Value::String(fields.creator));
            row.push_back(Value::Real(RoundPrice(fields.price)));
            row.push_back(Value::String(fields.code));
            row.push_back(Value::Int(fields.year));
            chunk->AddRow(std::move(row));
          }
        });
  };

  static constexpr const char* kBookAttrs[6] = {
      "BookID", "BookTitle", "Author", "ListPrice", "ISBN", "PubYear"};
  static constexpr const char* kMusicAttrs[6] = {
      "AlbumID", "AlbumName", "Artist", "Price", "UPC", "ReleaseYear"};
  out.target = Database("target");
  out.target.AddTable(make_target("Book", kBookAttrs, /*books=*/true));
  out.target.AddTable(make_target("Music", kMusicAttrs, /*books=*/false));

  // ---- Ground truth (same structure as retail_gen) ---------------------
  static constexpr const char* kSourceAttrs[6] = {
      "ItemID", "Title", "Creator", "Price", "Code", "PubYear"};
  for (size_t i = 1; i < 6; ++i) {
    out.truth.entries.push_back(TruthEntry{"inventory", kSourceAttrs[i],
                                           "Book", kBookAttrs[i], "ItemType",
                                           out.book_labels});
    out.truth.entries.push_back(TruthEntry{"inventory", kSourceAttrs[i],
                                           "Music", kMusicAttrs[i],
                                           "ItemType", out.cd_labels});
  }
  return out;
}

GradesDataset MakeScaleGradesDataset(const ScaleGradesOptions& options) {
  CSM_CHECK_GE(options.num_exams, 1u);
  GradesDataset out;

  const size_t student_chunks =
      (options.num_students + options.students_per_chunk - 1) /
      options.students_per_chunk;
  PoolHandle pool =
      ResolvePool(options.pool, options.threads, student_chunks);

  // Unique without a global collision set: every chunk can mint names
  // independently because the global student index is part of the name.
  auto student_name = [](size_t index, Rng& rng) {
    return StrFormat("%s #%zu", MakePersonName(rng).c_str(), index);
  };

  // ---- Source: grades_narrow ------------------------------------------
  TableSchema narrow_schema("grades_narrow");
  narrow_schema.AddAttribute("name", ValueType::kString);
  narrow_schema.AddAttribute("examNum", ValueType::kInt);
  narrow_schema.AddAttribute("grade", ValueType::kReal);

  // Chunk unit = one student (num_exams rows), so a chunk's row count is
  // students_in_chunk * num_exams.
  const size_t narrow_chunk_rows =
      options.students_per_chunk * options.num_exams;
  Table narrow = GenerateChunked(
      narrow_schema, options.num_students * options.num_exams,
      narrow_chunk_rows, options.seed, "grades_narrow", pool.pool,
      [&](Table* chunk, size_t first_row, size_t rows, Rng& rng) {
        const size_t first_student = first_row / options.num_exams;
        const size_t students = rows / options.num_exams;
        for (size_t s = 0; s < students; ++s) {
          const std::string name = student_name(first_student + s, rng);
          for (size_t exam = 1; exam <= options.num_exams; ++exam) {
            Row row;
            row.push_back(Value::String(name));
            row.push_back(Value::Int(static_cast<int64_t>(exam)));
            row.push_back(Value::Real(MakeGrade(exam, options.sigma, rng)));
            chunk->AddRow(std::move(row));
          }
        }
      });
  out.source = Database("source");
  out.source.AddTable(std::move(narrow));

  // ---- Target: grades_wide --------------------------------------------
  TableSchema wide_schema("grades_wide");
  wide_schema.AddAttribute("name", ValueType::kString);
  for (size_t exam = 1; exam <= options.num_exams; ++exam) {
    wide_schema.AddAttribute(StrFormat("grade%zu", exam), ValueType::kReal);
  }
  Table wide = GenerateChunked(
      wide_schema, options.num_students, options.students_per_chunk,
      options.seed, "grades_wide", pool.pool,
      [&](Table* chunk, size_t first, size_t rows, Rng& rng) {
        for (size_t s = 0; s < rows; ++s) {
          Row row;
          row.push_back(Value::String(student_name(first + s, rng)));
          for (size_t exam = 1; exam <= options.num_exams; ++exam) {
            row.push_back(Value::Real(MakeGrade(exam, options.sigma, rng)));
          }
          chunk->AddRow(std::move(row));
        }
      });
  out.target = Database("target");
  out.target.AddTable(std::move(wide));

  // ---- Ground truth (same structure as grades_gen) ---------------------
  std::vector<Value> all_exams;
  for (size_t exam = 1; exam <= options.num_exams; ++exam) {
    all_exams.push_back(Value::Int(static_cast<int64_t>(exam)));
  }
  out.truth.entries.push_back(TruthEntry{"grades_narrow", "name",
                                         "grades_wide", "name", "examNum",
                                         all_exams});
  for (size_t exam = 1; exam <= options.num_exams; ++exam) {
    out.truth.entries.push_back(
        TruthEntry{"grades_narrow", "grade", "grades_wide",
                   StrFormat("grade%zu", exam), "examNum",
                   {Value::Int(static_cast<int64_t>(exam))}});
  }
  return out;
}

Status WriteScaleDatasetCsv(const Database& source, const Database& target,
                            const GroundTruth& truth,
                            const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create directory: " + dir + ": " +
                           ec.message());
  }
  for (const Database* db : {&source, &target}) {
    for (const Table& table : db->tables()) {
      CSM_RETURN_IF_ERROR(
          WriteCsvFile(table, dir + "/" + table.name() + ".csv"));
    }
  }
  std::ofstream truth_out(dir + "/truth.tsv", std::ios::binary);
  if (!truth_out) {
    return Status::IoError("cannot open for write: " + dir + "/truth.tsv");
  }
  for (const TruthEntry& entry : truth.entries) {
    truth_out << entry.source_table << '\t' << entry.source_attribute << '\t'
              << entry.target_table << '\t' << entry.target_attribute << '\t'
              << entry.label_attribute << '\t';
    for (size_t i = 0; i < entry.allowed_values.size(); ++i) {
      if (i > 0) truth_out << ',';
      truth_out << entry.allowed_values[i].ToString();
    }
    truth_out << '\n';
  }
  // close() flushes the buffered tail; a failure there must not read as OK.
  truth_out.close();
  if (!truth_out) return Status::IoError("write failed: " + dir + "/truth.tsv");
  return Status::Ok();
}

}  // namespace csm
