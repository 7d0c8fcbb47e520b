// Conjunctive contextual conditions (Section 3.5): the target's
// fiction_books table corresponds to `type = 'book' AND fiction = 1` in the
// source — a 2-condition that single-stage ContextMatch cannot express.
// A MatchMode::kConjunctive request finds it in the second stage by
// re-running view inference on the views selected in the first stage,
// partitioning only on attributes not already in the condition.
//
// Build & run:  ./build/examples/conjunctive_context

#include <cstdio>

#include "common/random.h"
#include "core/match_engine.h"
#include "datagen/wordlists.h"

int main() {
  using namespace csm;

  // ---- Synthesize source and target -----------------------------------
  Rng rng(33);
  TableSchema inv_schema("inv");
  inv_schema.AddAttribute("type", ValueType::kString);
  inv_schema.AddAttribute("fiction", ValueType::kInt);
  inv_schema.AddAttribute("title", ValueType::kString);
  inv_schema.AddAttribute("creator", ValueType::kString);
  Table inv(inv_schema);
  for (int i = 0; i < 300; ++i) {
    bool is_book = rng.NextBernoulli(0.5);
    bool fiction = rng.NextBernoulli(0.5);
    std::string title = is_book ? MakeBookTitle(rng) : MakeAlbumTitle(rng);
    if (is_book && fiction) title += " saga of dragons";
    if (is_book && !fiction) title += " a practical handbook";
    inv.AddRow({Value::String(is_book ? "book" : "cd"),
                Value::Int(fiction ? 1 : 0), Value::String(title),
                Value::String(is_book ? MakePersonName(rng)
                                      : MakeBandName(rng))});
  }
  Database source("src");
  source.AddTable(std::move(inv));

  TableSchema fiction_schema("fiction_books");
  fiction_schema.AddAttribute("title", ValueType::kString);
  fiction_schema.AddAttribute("author", ValueType::kString);
  Table fiction_books(fiction_schema);
  TableSchema music_schema("music");
  music_schema.AddAttribute("album", ValueType::kString);
  music_schema.AddAttribute("artist", ValueType::kString);
  Table music(music_schema);
  for (int i = 0; i < 150; ++i) {
    fiction_books.AddRow(
        {Value::String(MakeBookTitle(rng) + " saga of dragons"),
         Value::String(MakePersonName(rng))});
    music.AddRow({Value::String(MakeAlbumTitle(rng)),
                  Value::String(MakeBandName(rng))});
  }
  Database target("tgt");
  target.AddTable(std::move(fiction_books));
  target.AddTable(std::move(music));

  ContextMatchOptions options;
  options.inference = ViewInferenceKind::kSrcClass;
  options.early_disjuncts = false;
  options.omega = 0.05;
  options.seed = 34;

  // ---- Stage 1 only: simple 1-conditions -------------------------------
  MatchEngine engine(options);
  const MatchResponse single = engine.Execute(
      {.source = BorrowDatabase(source), .target = BorrowDatabase(target)});
  std::printf("-- single-stage selected views --\n");
  for (const View& v : single.selected_views) {
    std::printf("  %s\n", v.ToString().c_str());
  }

  // ---- Two stages: conjunctive 2-conditions ----------------------------
  const MatchResponse staged =
      engine.Execute({.mode = MatchMode::kConjunctive,
                      .max_stages = 2,
                      .source = BorrowDatabase(source),
                      .target = BorrowDatabase(target)});
  std::printf("\n-- two-stage selected views --\n");
  for (const View& v : staged.selected_views) {
    std::printf("  %s\n", v.ToString().c_str());
  }
  std::printf("\n-- two-stage matches --\n");
  for (const Match& m : staged.matches) {
    std::printf("  %s\n", m.ToString().c_str());
  }

  bool found = false;
  for (const View& v : staged.selected_views) {
    if (v.condition().NumAttributes() == 2 &&
        v.condition().MentionsAttribute("type") &&
        v.condition().MentionsAttribute("fiction")) {
      found = true;
    }
  }
  std::printf("\nconjunctive condition %s\n",
              found ? "FOUND (type AND fiction)" : "not found");
  return found ? 0 : 1;
}
