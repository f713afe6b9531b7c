#include "tools/smfl_lint/race.h"

#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "tools/smfl_lint/parse.h"

namespace smfl::lint {

namespace {

using Kind = Token::Kind;

// Keywords that can precede an identifier without making it a declaration
// (`return x`, `delete p`, ...). Everything else identifier-shaped in the
// previous slot is treated as a type name.
const std::set<std::string>& NonTypePrevKeywords() {
  static const std::set<std::string> kWords = {
      "return",   "throw",    "new",   "delete",   "else",     "case",
      "goto",     "do",       "sizeof", "co_return", "co_await", "co_yield",
      "operator", "typedef",  "using", "if",       "while",    "for",
      "switch",   "break",    "continue", "not",   "and",      "or"};
  return kWords;
}

const std::set<std::string>& AssignOps() {
  static const std::set<std::string> kOps = {
      "=",  "+=", "-=", "*=",  "/=",  "%=",
      "&=", "|=", "^=", "<<=", ">>="};
  return kOps;
}

// Container-mutating member names. Conservative: only names that are
// unambiguously mutations on the standard containers / repo types.
const std::set<std::string>& MutatingMembers() {
  static const std::set<std::string> kNames = {
      "push_back", "emplace_back", "pop_back", "push_front",
      "emplace_front", "pop_front", "insert", "emplace", "erase",
      "clear", "resize", "reserve", "assign", "append", "push", "pop"};
  return kNames;
}

// Rng members that advance or reset the generator state (src/common/rng.h).
const std::set<std::string>& RngMembers() {
  static const std::set<std::string> kNames = {
      "Uniform", "UniformInt", "Normal", "NextU64", "Seed", "SetState"};
  return kNames;
}

// telemetry:: functions that are pure reads and safe anywhere.
const std::set<std::string>& TelemetryAllowlist() {
  static const std::set<std::string> kNames = {"Enabled", "NowMicros",
                                               "SmallThreadId"};
  return kNames;
}

// Names declared `std::atomic<T> name` (or atomic_flag/atomic_bool/...)
// anywhere in the file; writes to these are synchronization, not races.
std::set<std::string> HarvestAtomics(const LexedFile& file) {
  std::set<std::string> out;
  const std::vector<Token>& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Kind::kIdent) continue;
    if (toks[i].text != "atomic" && toks[i].text.rfind("atomic_", 0) != 0) {
      continue;
    }
    size_t k = i + 1;
    if (k < toks.size() && TokIsPunct(toks[k], "<")) {
      k = SkipTemplateArgList(toks, k);
    }
    if (k < toks.size() && toks[k].kind == Kind::kIdent) {
      out.insert(toks[k].text);
    }
  }
  return out;
}

struct BodyScope {
  std::set<std::string> locals;   // declared inside the body (or a nested
                                  // lambda's parameters)
  std::set<std::string> derived;  // induction-derived: the lambda's chunk
                                  // parameters and locals transitively
                                  // initialized from them
  // Token ranges of nested-lambda capture lists ("[" .. body "{"), where
  // init-capture "=" tokens must not be mistaken for writes.
  std::vector<std::pair<size_t, size_t>> skip_ranges;
};

bool InSkipRange(const BodyScope& scope, size_t idx) {
  for (const auto& [lo, hi] : scope.skip_ranges) {
    if (idx >= lo && idx < hi) return true;
  }
  return false;
}

// Index one past the array bounds `[N][M]...` starting at i (i itself when
// toks[i] is not "["), or `end` when a bound is unbalanced.
size_t SkipArrayBounds(const std::vector<Token>& toks, size_t i, size_t end) {
  while (i < end && TokIsPunct(toks[i], "[")) {
    const size_t close = MatchingBracket(toks, i);
    if (close >= end) return end;
    i = close + 1;
  }
  return i;
}

// True when the identifier at j, followed by "[", declares an array:
// `T name[N]` or `T* name[N]` (a statement-leading `const T* name[N]`
// included), with its bounds followed by ";", "=", "{" or ",". The
// element-access expressions `a * r[i];` and `return r[i];` stay writes.
bool IsArrayDeclarator(const std::vector<Token>& toks, size_t j, size_t lo,
                       size_t end) {
  const auto type_ident = [&](size_t k) {
    return toks[k].kind == Kind::kIdent &&
           !NonTypePrevKeywords().count(toks[k].text);
  };
  bool typed = j > lo && type_ident(j - 1);
  if (!typed && j >= lo + 2 && TokIsPunct(toks[j - 1], "*") &&
      type_ident(j - 2)) {
    // `T* name[N]`: what precedes T must start a statement (or be another
    // type word), else `a * r[i]` is a product.
    typed = j < lo + 3 || type_ident(j - 3) || TokIsPunct(toks[j - 3], ";") ||
            TokIsPunct(toks[j - 3], "{") || TokIsPunct(toks[j - 3], "}");
  }
  if (!typed) return false;
  const size_t after = SkipArrayBounds(toks, j + 1, end);
  if (after >= end) return false;
  const Token& t = toks[after];
  return TokIsPunct(t, ";") || TokIsPunct(t, "=") || TokIsPunct(t, "{") ||
         TokIsPunct(t, ",");
}

// Forward pass over the body: record declarations, propagate
// induction-derived-ness through initializers, and absorb nested lambdas'
// parameters as locals.
BodyScope CollectLocals(const std::vector<Token>& toks,
                        const LambdaInfo& lam) {
  BodyScope scope;
  for (const std::string& p : lam.params) scope.derived.insert(p);

  for (size_t j = lam.body_begin; j < lam.body_end; ++j) {
    const Token& t = toks[j];

    if (TokIsPunct(t, "[")) {
      LambdaInfo nested;
      if (ParseLambda(toks, j, &nested)) {
        for (const std::string& p : nested.params) scope.locals.insert(p);
        scope.skip_ranges.push_back(
            {j, nested.body_begin > 0 ? nested.body_begin : j + 1});
      }
      continue;
    }

    if (t.kind != Kind::kIdent || j == 0 || j + 1 >= lam.body_end) continue;
    const Token& prev = toks[j - 1];
    const bool type_prev =
        (prev.kind == Kind::kIdent && !NonTypePrevKeywords().count(prev.text)) ||
        TokIsPunct(prev, "&") || TokIsPunct(prev, "*") ||
        TokIsPunct(prev, ">") || TokIsPunct(prev, ">>");
    if (!type_prev) continue;
    const Token& next = toks[j + 1];
    const bool is_decl =
        TokIsPunct(next, "=") || TokIsPunct(next, ";") ||
        TokIsPunct(next, "{") || TokIsPunct(next, "(") ||
        TokIsPunct(next, ":") || TokIsPunct(next, ",") ||
        (TokIsPunct(next, "[") &&
         IsArrayDeclarator(toks, j, lam.body_begin, lam.body_end));
    if (!is_decl) continue;

    // Walk the whole declarator chain (`Index a = 0, b = 0;` declares
    // both, `double num[4] = {}, den[4] = {};` too). Each declarator's own
    // initializer decides whether it is induction-derived (loop variables
    // `for (Index i = begin; ...`, row handles `auto& row = outcomes[i]`).
    size_t name_idx = j;
    while (name_idx < lam.body_end &&
           toks[name_idx].kind == Kind::kIdent) {
      scope.locals.insert(toks[name_idx].text);
      // An array declarator's bounds sit between its name and the rest.
      const size_t after_idx =
          SkipArrayBounds(toks, name_idx + 1, lam.body_end);
      if (after_idx >= lam.body_end) break;
      const Token& after = toks[after_idx];
      if (TokIsPunct(after, ";")) break;
      if (TokIsPunct(after, ",")) {
        // `Index a, b;` — skip optional &/* before the next name.
        size_t k = after_idx + 1;
        while (k < lam.body_end &&
               (TokIsPunct(toks[k], "&") || TokIsPunct(toks[k], "*"))) {
          ++k;
        }
        name_idx = k;
        continue;
      }
      if (!TokIsPunct(after, "=") && !TokIsPunct(after, ":") &&
          !TokIsPunct(after, "{") && !TokIsPunct(after, "(")) {
        break;
      }
      int depth = 0;
      bool derived_init = false;
      size_t stop = lam.body_end;
      bool stopped_at_comma = false;
      // The paren/brace forms scan from their opener, so commas inside the
      // initializer stay nested and `stop` lands on the matching closer.
      const bool grouped = TokIsPunct(after, "(") || TokIsPunct(after, "{");
      for (size_t k = grouped ? after_idx : after_idx + 1; k < lam.body_end;
           ++k) {
        const Token& u = toks[k];
        if (u.kind == Kind::kPunct) {
          if (u.text == "(" || u.text == "[" || u.text == "{") {
            ++depth;
            continue;
          }
          if (u.text == ")" || u.text == "]" || u.text == "}") {
            if (depth == 0) {
              stop = k;
              break;
            }
            --depth;
            if (grouped && depth == 0) {
              stop = k;
              break;
            }
            continue;
          }
          if (depth == 0 && (u.text == ";" || u.text == ",")) {
            stop = k;
            stopped_at_comma = u.text == ",";
            break;
          }
        }
        if (u.kind == Kind::kIdent && scope.derived.count(u.text)) {
          derived_init = true;
        }
      }
      if (derived_init) scope.derived.insert(toks[name_idx].text);
      // `name = init,` chains at its top-level comma, `name(...)` and
      // `name{...}` at a comma right after the closer
      // (`std::vector<double> num(k), den(k);` declares both); the
      // range-for form ends the statement.
      size_t k = lam.body_end;
      if (TokIsPunct(after, "=") && stopped_at_comma) {
        k = stop + 1;
      } else if (grouped && stop + 1 < lam.body_end &&
                 TokIsPunct(toks[stop + 1], ",")) {
        k = stop + 2;
      }
      if (k >= lam.body_end) break;
      while (k < lam.body_end &&
             (TokIsPunct(toks[k], "&") || TokIsPunct(toks[k], "*"))) {
        ++k;
      }
      name_idx = k;
    }
  }
  return scope;
}

// Index of the "(" / "[" matching the closer at i, searching backward.
size_t MatchingOpenBackward(const std::vector<Token>& toks, size_t i,
                            const char* open, const char* close) {
  int depth = 0;
  for (size_t k = i + 1; k-- > 0;) {
    if (TokIsPunct(toks[k], close)) {
      ++depth;
    } else if (TokIsPunct(toks[k], open)) {
      if (--depth == 0) return k;
    }
  }
  return toks.size();
}

struct Lvalue {
  std::string base;                    // root object of the access path
  bool groups_have_induction = false;  // some [..] / (..) on the path
                                       // mentions an induction-derived name
  bool ok = false;
};

// Walks backward from the token before `op_idx` through an access path
// (subscripts, call groups, `.`/`->`/`::` chains) to the root identifier.
Lvalue WalkLvalueBackward(const std::vector<Token>& toks, size_t op_idx,
                          size_t lo, const std::set<std::string>& derived) {
  Lvalue out;
  if (op_idx == 0 || op_idx <= lo) return out;
  size_t k = op_idx - 1;
  while (true) {
    if (k < lo) return out;
    const Token& t = toks[k];
    if (TokIsPunct(t, "]") || TokIsPunct(t, ")")) {
      const bool bracket = t.text == "]";
      const size_t open = MatchingOpenBackward(toks, k, bracket ? "[" : "(",
                                               bracket ? "]" : ")");
      if (open >= toks.size() || open < lo || open == 0) return out;
      for (size_t g = open + 1; g < k; ++g) {
        if (toks[g].kind == Kind::kIdent && derived.count(toks[g].text)) {
          out.groups_have_induction = true;
        }
      }
      k = open - 1;
      continue;
    }
    if (t.kind == Kind::kIdent) {
      if (k > lo) {
        const Token& p = toks[k - 1];
        if (TokIsPunct(p, ".") || TokIsPunct(p, "->") || TokIsPunct(p, "::")) {
          if (k < lo + 2) return out;
          k -= 2;
          continue;
        }
      }
      out.base = t.text;
      out.ok = true;
      return out;
    }
    return out;  // complex lvalue (deref chains, casts): stay quiet
  }
}

// Forward variant for prefix ++/--: base is the first identifier, then
// the `.`/`->` chain and any subscript groups after it.
Lvalue WalkLvalueForward(const std::vector<Token>& toks, size_t start,
                         size_t hi, const std::set<std::string>& derived) {
  Lvalue out;
  size_t k = start;
  while (k < hi && TokIsPunct(toks[k], "*")) ++k;
  if (k >= hi || toks[k].kind != Kind::kIdent) return out;
  out.base = toks[k].text;
  out.ok = true;
  ++k;
  while (k < hi) {
    if ((TokIsPunct(toks[k], ".") || TokIsPunct(toks[k], "->")) &&
        k + 1 < hi && toks[k + 1].kind == Kind::kIdent) {
      k += 2;
      continue;
    }
    if (TokIsPunct(toks[k], "[")) {
      const size_t close = MatchingBracket(toks, k);
      if (close >= hi) break;
      for (size_t g = k + 1; g < close; ++g) {
        if (toks[g].kind == Kind::kIdent && derived.count(toks[g].text)) {
          out.groups_have_induction = true;
        }
      }
      k = close + 1;
      continue;
    }
    break;
  }
  return out;
}

struct SiteContext {
  const LexedFile& file;
  const std::string& call_name;  // ParallelFor / ParallelReduce
  const LambdaInfo& lam;
  const BodyScope& scope;
  const std::set<std::string>& atomics;
  std::vector<Diagnostic>* raw;
};

// True when a write through `lv` cannot be (or need not be) flagged.
bool WriteIsSafe(const Lvalue& lv, const SiteContext& ctx) {
  if (!lv.ok) return true;
  if (lv.groups_have_induction) return true;
  if (ctx.scope.locals.count(lv.base) || ctx.scope.derived.count(lv.base)) {
    return true;
  }
  if (ctx.atomics.count(lv.base)) return true;
  // Only by-reference captures alias enclosing-scope state. (A `mutable`
  // by-value capture is still shared across chunk invocations of the one
  // callable, but the repo bans that style elsewhere; documented blind
  // spot.)
  return !(ctx.lam.by_ref_names.count(lv.base) || ctx.lam.default_by_ref);
}

std::string CaptureDesc(const SiteContext& ctx, const std::string& base) {
  return ctx.lam.by_ref_names.count(base)
             ? "captured by reference"
             : "captured by the [&] default";
}

void FlagWrite(const SiteContext& ctx, const Lvalue& lv, int line) {
  ctx.raw->push_back(Diagnostic{
      "race", ctx.file.rel_path, line,
      "write to '" + lv.base + "' (" + CaptureDesc(ctx, lv.base) +
          ") inside a " + ctx.call_name +
          " body is not indexed by the chunk induction variable — the "
          "deterministic-parallelism contract (src/common/parallel.h) "
          "requires chunk-local writes; accumulate into a body-local and "
          "combine outside the parallel region, or use ParallelReduce"});
}

void AnalyzeBody(const SiteContext& ctx) {
  const std::vector<Token>& toks = ctx.file.tokens;
  const size_t lo = ctx.lam.body_begin;
  const size_t hi = ctx.lam.body_end;

  for (size_t j = lo; j < hi; ++j) {
    const Token& t = toks[j];
    if (InSkipRange(ctx.scope, j)) continue;

    // ---- assignments / compound assignments -----------------------------
    if (t.kind == Kind::kPunct && AssignOps().count(t.text)) {
      const Lvalue lv = WalkLvalueBackward(toks, j, lo, ctx.scope.derived);
      if (!WriteIsSafe(lv, ctx)) FlagWrite(ctx, lv, t.line);
      continue;
    }

    // ---- increments / decrements ----------------------------------------
    if (TokIsPunct(t, "++") || TokIsPunct(t, "--")) {
      const bool postfix =
          j > lo && (toks[j - 1].kind == Kind::kIdent ||
                     TokIsPunct(toks[j - 1], "]") ||
                     TokIsPunct(toks[j - 1], ")"));
      const Lvalue lv =
          postfix ? WalkLvalueBackward(toks, j, lo, ctx.scope.derived)
                  : WalkLvalueForward(toks, j + 1, hi, ctx.scope.derived);
      if (!WriteIsSafe(lv, ctx)) FlagWrite(ctx, lv, t.line);
      continue;
    }

    // ---- member calls: container mutation & RNG advancement -------------
    if ((TokIsPunct(t, ".") || TokIsPunct(t, "->")) && j + 2 < hi &&
        toks[j + 1].kind == Kind::kIdent && TokIsPunct(toks[j + 2], "(")) {
      const std::string& member = toks[j + 1].text;
      const bool mutating = MutatingMembers().count(member) > 0;
      const bool rng = RngMembers().count(member) > 0;
      if (!mutating && !rng) continue;
      const Lvalue lv = WalkLvalueBackward(toks, j, lo, ctx.scope.derived);
      if (!lv.ok || lv.groups_have_induction) continue;
      const bool local = ctx.scope.locals.count(lv.base) ||
                         ctx.scope.derived.count(lv.base);
      if (mutating && !local &&
          (ctx.lam.by_ref_names.count(lv.base) || ctx.lam.default_by_ref)) {
        ctx.raw->push_back(Diagnostic{
            "race", ctx.file.rel_path, t.line,
            "'" + lv.base + "." + member + "(...)' inside a " +
                ctx.call_name + " body mutates state " +
                CaptureDesc(ctx, lv.base) +
                " — container mutation from worker threads is a data race "
                "and its final order depends on scheduling; build "
                "chunk-local results and merge them after the parallel "
                "region"});
      } else if (rng && !local) {
        ctx.raw->push_back(Diagnostic{
            "race", ctx.file.rel_path, t.line,
            "'" + lv.base + "." + member + "(...)' advances RNG state "
                "inside a " + ctx.call_name +
                " body — the draw sequence would depend on worker "
                "scheduling; pre-draw outside the parallel region or "
                "derive a chunk-local Rng from the chunk index"});
      }
      continue;
    }

    // ---- telemetry:: calls ----------------------------------------------
    if (t.kind == Kind::kIdent && t.text == "telemetry" && j + 3 < hi &&
        TokIsPunct(toks[j + 1], "::") && toks[j + 2].kind == Kind::kIdent &&
        TokIsPunct(toks[j + 3], "(")) {
      const std::string& fn = toks[j + 2].text;
      if (!TelemetryAllowlist().count(fn)) {
        ctx.raw->push_back(Diagnostic{
            "race", ctx.file.rel_path, t.line,
            "'telemetry::" + fn + "' called inside a " + ctx.call_name +
                " body; only telemetry::Enabled, NowMicros, and "
                "SmallThreadId are allowlisted there — route "
                "instrumentation through the SMFL_* macros (relaxed "
                "atomics, merge-on-read) instead"});
      }
      continue;
    }
  }
}

}  // namespace

void CheckParallelRaces(const LexedFile& file, std::vector<Diagnostic>* raw) {
  const std::vector<Token>& toks = file.tokens;
  const std::set<std::string> atomics = HarvestAtomics(file);

  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Kind::kIdent) continue;
    if (toks[i].text != "ParallelFor" && toks[i].text != "ParallelReduce") {
      continue;
    }
    if (!TokIsPunct(toks[i + 1], "(")) continue;
    const size_t close = MatchingParen(toks, i + 1);
    if (close >= toks.size()) continue;

    // The loop body is the first lambda among the arguments. A named
    // functor passed instead is a blind spot (documented).
    LambdaInfo lam;
    bool found = false;
    for (size_t j = i + 2; j < close; ++j) {
      if (TokIsPunct(toks[j], "[") && ParseLambda(toks, j, &lam)) {
        found = true;
        break;
      }
    }
    if (!found || lam.body_begin >= lam.body_end) continue;

    const BodyScope scope = CollectLocals(toks, lam);
    const SiteContext ctx{file, toks[i].text, lam, scope, atomics, raw};
    AnalyzeBody(ctx);
    // Do not jump past `close`: nested parallel call sites inside this
    // body are analyzed as their own sites.
  }
}

}  // namespace smfl::lint
