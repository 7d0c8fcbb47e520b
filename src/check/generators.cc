#include "check/generators.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <vector>

#include "common/logging.h"

namespace csm::check {
namespace {

const std::vector<std::string>& HostileWords() {
  static const std::vector<std::string> kWords = {
      "alpha", "beta",  "gamma", "delta", "omega", "kappa",
      "sigma", "theta", "vega",  "zeta",  "nu",    "xi"};
  return kWords;
}

const std::vector<std::string>& Utf8Runs() {
  static const std::vector<std::string> kRuns = {
      "h\xc3\xa9llo",                       // héllo
      "na\xc3\xafve",                       // naïve
      "\xe6\x97\xa5\xe6\x9c\xac\xe8\xaa\x9e",  // 日本語
      "\xce\xa9mega",                       // Ωmega
      "\xf0\x9f\x99\x82ok",                 // 🙂ok
  };
  return kRuns;
}

std::string PickWord(Rng& rng) {
  const auto& words = HostileWords();
  return words[rng.NextBounded(words.size())];
}

double PickSpecialReal(Rng& rng) {
  static const double kReals[] = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -0.0,
      0.1 + 0.2,
      1234567.25,
      1e15,
      -999999999999999.0,
      1e-300,
      5e-324};
  return kReals[rng.NextBounded(std::size(kReals))];
}

}  // namespace

uint64_t IterationSeed(uint64_t seed, uint64_t iteration) {
  // splitmix64 step over a fold of (seed, iteration); the +1 keeps
  // iteration 0 from collapsing onto the bare seed.
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (iteration + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string RandomHostileCell(Rng& rng) {
  switch (rng.NextBounded(10)) {
    case 0:
      return PickWord(rng);
    case 1:  // embedded comma
      return PickWord(rng) + "," + PickWord(rng);
    case 2:  // embedded quotes, including doubled ones
      return "\"" + PickWord(rng) + "\"\"" + PickWord(rng);
    case 3:  // embedded LF
      return PickWord(rng) + "\n" + PickWord(rng);
    case 4:  // embedded CRLF
      return PickWord(rng) + "\r\n" + PickWord(rng);
    case 5:  // embedded bare CR (classic Mac line ending inside a field)
      return PickWord(rng) + "\r" + PickWord(rng);
    case 6: {  // multi-byte UTF-8
      const auto& runs = Utf8Runs();
      return runs[rng.NextBounded(runs.size())];
    }
    case 7:  // leading/trailing blanks survive string parsing
      return " " + PickWord(rng) + "  ";
    case 8:  // every special character at once
      return PickWord(rng) + ",\"\r\n," + PickWord(rng);
    default:  // two words (plain, with a space)
      return PickWord(rng) + " " + PickWord(rng);
  }
}

Table RandomHostileTable(const std::string& name, Rng& rng,
                         const HostileTableOptions& options) {
  CSM_CHECK_GE(options.max_attributes, options.min_attributes);
  CSM_CHECK_GE(options.max_rows, options.min_rows);
  const size_t num_attributes = static_cast<size_t>(
      rng.NextInt(options.min_attributes, options.max_attributes));
  const size_t num_rows =
      static_cast<size_t>(rng.NextInt(options.min_rows, options.max_rows));

  TableSchema schema(name);
  std::vector<ValueType> types;
  for (size_t c = 0; c < num_attributes; ++c) {
    ValueType type = ValueType::kString;
    switch (rng.NextBounded(4)) {
      case 0:
        type = ValueType::kInt;
        break;
      case 1:
        type = ValueType::kReal;
        break;
      default:
        type = ValueType::kString;  // bias toward the hostile cells
        break;
    }
    types.push_back(type);
    schema.AddAttribute("a" + std::to_string(c), type);
  }

  Table out(schema);
  for (size_t r = 0; r < num_rows; ++r) {
    Row row;
    row.reserve(num_attributes);
    for (size_t c = 0; c < num_attributes; ++c) {
      if (rng.NextDouble() < options.null_probability) {
        row.push_back(Value::Null());
        continue;
      }
      switch (types[c]) {
        case ValueType::kInt:
          row.push_back(Value::Int(rng.NextInt(-100000, 100000)));
          break;
        case ValueType::kReal:
          if (options.special_reals && rng.NextBounded(3) == 0) {
            row.push_back(Value::Real(PickSpecialReal(rng)));
            break;
          }
          // Exact binary fractions (k/8) within +/-1000: at most 6
          // significant digits, so the "%g" rendering round trips
          // losslessly through text.
          row.push_back(Value::Real(rng.NextInt(-8000, 8000) / 8.0));
          break;
        default:
          row.push_back(Value::String(RandomHostileCell(rng)));
          break;
      }
    }
    out.AddRow(std::move(row));
  }
  return out;
}

Condition RandomCondition(const Table& table, Rng& rng) {
  Condition condition;
  const size_t num_attributes = table.schema().num_attributes();
  if (num_attributes == 0) return condition;
  const size_t max_clauses = std::min<size_t>(2, num_attributes);
  const size_t num_clauses =
      static_cast<size_t>(rng.NextBounded(max_clauses + 1));
  if (num_clauses == 0) return condition;  // "true"

  std::vector<size_t> columns(num_attributes);
  for (size_t c = 0; c < num_attributes; ++c) columns[c] = c;
  rng.Shuffle(columns);
  columns.resize(num_clauses);

  for (size_t c : columns) {
    const auto& attr = table.schema().attribute(c);
    // Distinct non-null values present in the column.
    std::vector<Value> present;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      Value value = table.ValueAt(r, c);
      if (value.is_null()) continue;
      if (std::find(present.begin(), present.end(), value) == present.end()) {
        present.push_back(std::move(value));
      }
    }
    std::vector<Value> values;
    const size_t num_values = static_cast<size_t>(rng.NextInt(1, 3));
    for (size_t i = 0; i < num_values; ++i) {
      const bool use_present = !present.empty() && rng.NextDouble() < 0.7;
      if (use_present) {
        values.push_back(present[rng.NextBounded(present.size())]);
        continue;
      }
      // A value certainly absent from the column (type-consistent).
      switch (attr.type) {
        case ValueType::kInt:
          values.push_back(Value::Int(1000000 + rng.NextInt(0, 1000)));
          break;
        case ValueType::kReal:
          values.push_back(
              Value::Real(1000000.5 + static_cast<double>(rng.NextInt(0, 1000))));
          break;
        default:
          values.push_back(Value::String(
              "zz_absent_" + std::to_string(rng.NextBounded(1000))));
          break;
      }
    }
    condition.AddClause(attr.name, std::move(values));
  }
  return condition;
}

namespace {

/// A value domain shared by source and target columns.  String domains are
/// sliced by the row's category label so classifiers have real signal to
/// find (the same trick the retail generator plays with book/CD titles).
struct Domain {
  std::string attribute;
  ValueType type;
};

const std::vector<Domain>& ValueDomains() {
  static const std::vector<Domain> kDomains = {
      {"name", ValueType::kString},  {"title", ValueType::kString},
      {"city", ValueType::kString},  {"artist", ValueType::kString},
      {"price", ValueType::kReal},   {"year", ValueType::kInt},
      {"qty", ValueType::kInt},      {"rating", ValueType::kReal},
  };
  return kDomains;
}

const std::vector<std::string>& DomainWords() {
  static const std::vector<std::string> kWords = {
      "amber", "birch",  "cedar",  "dune",   "ember", "fjord",
      "grove", "harbor", "inlet",  "juniper", "knoll", "lagoon",
      "mesa",  "nook",   "orchard", "prairie"};
  return kWords;
}

Value DomainCell(const Domain& domain, size_t label, size_t cardinality,
                 Rng& rng) {
  switch (domain.type) {
    case ValueType::kInt:
      // Category-shifted band with noise.
      if (rng.NextDouble() < 0.6) {
        return Value::Int(static_cast<int64_t>(label) * 50 +
                          rng.NextInt(0, 40));
      }
      return Value::Int(rng.NextInt(0, 200));
    case ValueType::kReal:
      if (rng.NextDouble() < 0.6) {
        return Value::Real(static_cast<double>(label) * 25.0 +
                           static_cast<double>(rng.NextInt(0, 80)) / 4.0);
      }
      return Value::Real(static_cast<double>(rng.NextInt(0, 800)) / 4.0);
    default: {
      const auto& words = DomainWords();
      const size_t slice = words.size() / std::max<size_t>(cardinality, 1);
      if (slice > 0 && rng.NextDouble() < 0.7) {
        // Word from this category's slice of the pool.
        const size_t base = (label % cardinality) * slice;
        return Value::String(words[base + rng.NextBounded(slice)]);
      }
      return Value::String(words[rng.NextBounded(words.size())]);
    }
  }
}

Table RandomPairTable(const std::string& name,
                      const std::string& categorical_attribute,
                      size_t cardinality, const std::vector<Domain>& domains,
                      size_t num_rows, Rng& rng) {
  TableSchema schema(name);
  schema.AddAttribute(categorical_attribute, ValueType::kString);
  for (const Domain& domain : domains) {
    schema.AddAttribute(domain.attribute, domain.type);
  }
  Table out(schema);
  for (size_t r = 0; r < num_rows; ++r) {
    const size_t label = rng.NextBounded(cardinality);
    Row row;
    row.reserve(domains.size() + 1);
    row.push_back(Value::String("L" + std::to_string(label)));
    for (const Domain& domain : domains) {
      row.push_back(DomainCell(domain, label, cardinality, rng));
    }
    out.AddRow(std::move(row));
  }
  return out;
}

}  // namespace

DatabasePair RandomDatabasePair(Rng& rng, const DatabasePairOptions& options) {
  // The pair's shared universe: one categorical attribute name, a label
  // cardinality, and 3-5 active value domains both sides sample from.
  static const std::vector<std::string> kCategoricalNames = {
      "type", "genre", "grade", "status", "category"};
  const std::string categorical =
      kCategoricalNames[rng.NextBounded(kCategoricalNames.size())];
  const size_t cardinality = static_cast<size_t>(rng.NextInt(2, 4));

  std::vector<Domain> universe = ValueDomains();
  rng.Shuffle(universe);
  universe.resize(static_cast<size_t>(rng.NextInt(3, 5)));

  auto sample_domains = [&](size_t count) {
    std::vector<Domain> out = universe;
    rng.Shuffle(out);
    out.resize(std::min(count, out.size()));
    return out;
  };
  auto num_rows = [&] {
    return static_cast<size_t>(
        rng.NextInt(options.min_rows, options.max_rows));
  };

  DatabasePair pair;
  pair.source = Database("fuzz_src");
  pair.target = Database("fuzz_tgt");
  const size_t source_tables = static_cast<size_t>(
      rng.NextInt(options.min_source_tables, options.max_source_tables));
  const size_t target_tables = static_cast<size_t>(
      rng.NextInt(options.min_target_tables, options.max_target_tables));
  for (size_t t = 0; t < source_tables; ++t) {
    pair.source.AddTable(RandomPairTable(
        "s" + std::to_string(t), categorical, cardinality,
        sample_domains(static_cast<size_t>(rng.NextInt(2, 4))), num_rows(),
        rng));
  }
  for (size_t t = 0; t < target_tables; ++t) {
    pair.target.AddTable(RandomPairTable(
        "t" + std::to_string(t), categorical, cardinality,
        sample_domains(static_cast<size_t>(rng.NextInt(2, 4))), num_rows(),
        rng));
  }
  return pair;
}

}  // namespace csm::check
