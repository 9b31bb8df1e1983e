// naplet-analyze: whole-program static analysis over the repo's own
// concurrency and invariant-registry idioms (see DESIGN.md §12).
//
// The tool is deliberately dependency-free: it lexes C++ sources itself
// (comments/strings/raw-strings aware) and recognises the repo's fixed
// idioms — `util::Mutex m{LockRank::kX, "name"}` declarations,
// `MutexLock`/`UniqueMutexLock` guard scopes, `NAPLET_GUARDED_BY`
// annotations, `fault::hit("site")` weaves, `registry_.counter("name")`
// instruments — rather than parsing arbitrary C++. Needing no compiler
// libraries, the gate never silently disappears on GCC-only hosts.
#pragma once

#include <iosfwd>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace naplet::analyze {

// ---------------------------------------------------------------------------
// Lexer

enum class TokKind { kIdent, kNumber, kString, kChar, kPunct };

struct Token {
  TokKind kind;
  std::string text;  // for kString: the decoded literal value (no quotes)
  int line = 0;
};

struct LexedFile {
  std::string path;      // as given (absolute or root-relative)
  std::string rel_path;  // root-relative, '/'-separated
  std::vector<Token> tokens;
  std::vector<std::string> raw_lines;  // for suppression-comment scanning
};

/// Tokenize `text`. Comments and preprocessor directive lines are
/// dropped; string/char literals become single tokens carrying their
/// decoded value; `::` and `->` are single punct tokens.
LexedFile lex(std::string path, std::string rel_path, const std::string& text);

// ---------------------------------------------------------------------------
// Source model (what the scanner extracts per translation unit)

struct MemberDecl {
  std::string type_text;   // joined type tokens, e.g. "mutable util::Mutex"
  std::string name;
  std::string guarded_by;  // NAPLET_GUARDED_BY argument ("" if none)
  bool is_mutex = false;       // util::Mutex (not a guard class)
  bool mutex_has_ctor_args = false;  // declared with {rank, ...} init
  std::string rank_token;      // "kController" etc. ("" if not literal)
  bool is_static = false;
  bool is_const = false;
  bool is_reference = false;
  bool is_pointer = false;
  bool not_guarded = false;  // carries NAPLET_NOT_GUARDED(reason)
  int line = 0;
  std::string file;
};

struct ClassDecl {
  std::string name;  // qualified for nested classes: "Outer::Inner"
  std::string file;
  int line = 0;
  std::vector<MemberDecl> members;
  std::set<std::string> method_names;
  // Mutex members initialised with arguments from some constructor's init
  // list (e.g. WaitableCell's `mu_(rank, "WaitableCell")`): member name ->
  // first init-list argument token text.
  std::map<std::string, std::string> ctor_mutex_init;
  // Default value tokens of constructor parameters, by parameter name
  // (resolves `mu_(rank, ...)` where `rank = LockRank::kStateCell`).
  std::map<std::string, std::string> ctor_param_defaults;
};

/// A mutex "identity" the lock-order graph can hang edges on.
struct MutexRef {
  std::string cls;    // owning class ("" for globals/locals)
  std::string name;   // member/variable name
  std::string rank_token;  // "kController", "kUnranked", or "" = unknown
  bool resolved = false;

  [[nodiscard]] std::string display() const {
    return cls.empty() ? name : cls + "::" + name;
  }
  [[nodiscard]] std::string key() const { return cls + "::" + name; }
};

struct HeldLock {
  std::string mutex_expr;  // raw expression text, resolved later
  int line = 0;            // acquisition line
};

struct LockSite {
  std::string mutex_expr;
  std::string guard_var;
  bool unique_lock = false;  // UniqueMutexLock (may unlock/relock)
  int line = 0;
  std::vector<HeldLock> held;  // locks already held at this acquisition
};

struct CallSite {
  std::string callee;
  std::string receiver;  // "" bare | "x" obj | "Class"/"ns" qualifier text
  bool arrow = false;    // receiver accessed via ->
  bool qualified = false;  // receiver was a :: qualifier
  std::vector<std::string> str_args;  // string literal args, in order
  int arg_count_before_first_str = 0;
  int line = 0;
  std::vector<HeldLock> held;
  // For calls inside a constructor init list: the member being
  // initialised (cached-instrument idiom `ctr_(registry_.counter(...))`).
  std::string init_target;
};

struct LocalVar {
  std::string name;
  std::string type_name;  // last class-ish identifier of the type
};

struct FuncDecl {
  std::string cls;   // enclosing/qualifying class ("" = free function)
  std::string name;
  std::string file;
  int line = 0;
  std::vector<LockSite> locks;
  std::vector<CallSite> calls;
  std::map<std::string, std::string> symbols;  // local/param name -> type
  // `using S = ConnState;` style aliases inside the body.
  std::map<std::string, std::string> type_aliases;
  // Enumerator references: enum-ish qualifier -> enumerators referenced.
  std::map<std::string, std::set<std::string>> enum_refs;
  // `case X: return "lit";` literals (fault-site token functions).
  std::vector<std::string> case_return_literals;
  // Every identifier appearing in the body (cheap liveness check for
  // cached instruments: is the member ever touched again?).
  std::set<std::string> ident_refs;

  [[nodiscard]] std::string qname() const {
    return cls.empty() ? name : cls + "::" + name;
  }
};

struct EnumDecl {
  std::string name;
  std::string file;
  int line = 0;
  std::vector<std::string> enumerators;
  std::map<std::string, long> values;  // explicit or auto-incremented
};

struct GlobalVar {
  std::string name;
  std::string type_text;
  std::string file;
  int line = 0;
  bool is_mutex = false;
  bool mutex_has_ctor_args = false;
  std::string rank_token;
  std::vector<std::string> str_inits;  // string literals in the initializer
};

struct SourceModel {
  std::vector<LexedFile> files;
  std::map<std::string, ClassDecl> classes;         // by qualified name
  std::vector<FuncDecl> functions;
  std::map<std::string, EnumDecl> enums;            // by name
  std::map<std::string, long> count_constants;      // kXCount -> value
  std::map<std::string, GlobalVar> globals;         // by name
};

/// Scan one lexed file into `model` (merging with earlier files).
void scan_file(const LexedFile& file, SourceModel& model);

// ---------------------------------------------------------------------------
// Findings

struct Finding {
  std::string kind;     // stable kebab-case id, e.g. "lock-rank-inversion"
  std::string file;     // root-relative
  int line = 0;
  std::string symbol;   // function/class/site the finding anchors to
  std::string message;
  std::vector<std::string> chain;  // call chain for lock-order findings

  [[nodiscard]] std::string fingerprint() const {
    return kind + "|" + file + "|" + symbol;
  }
};

struct AnalysisResult {
  std::vector<Finding> findings;
  int suppressed = 0;  // dropped by analyze-ignore comments
  int baselined = 0;   // dropped by the baseline file
};

/// Load baseline fingerprints (one per line, '#' comments) from `path`.
std::set<std::string> load_baseline(const std::string& path);

/// Sort, dedup, and filter raw findings through suppression comments and
/// the baseline.
AnalysisResult postprocess(std::vector<Finding> findings,
                           const std::vector<LexedFile>& files,
                           const std::set<std::string>& baseline);

void emit_report(const AnalysisResult& result, std::ostream& out);
void emit_compact(const AnalysisResult& result, std::ostream& out);
void emit_json(const AnalysisResult& result, std::ostream& out);

// ---------------------------------------------------------------------------
// Passes

struct RankTable {
  std::map<std::string, long> value_of;  // "kController" -> 10
  bool loaded = false;
};

/// Build the rank table from the scanned LockRank enum (if present).
RankTable rank_table(const SourceModel& model);

/// Pass 1: inter-procedural lock-order analysis.
void lock_order_pass(const SourceModel& model, std::vector<Finding>& out);

/// Pass 2: annotation-coverage audit.
void annotation_pass(const SourceModel& model, std::vector<Finding>& out);

/// Pass 3: invariant-registry cross-checks. `design_md` is the contents
/// of DESIGN.md ("" = skip the rank-table check).
void registry_pass(const SourceModel& model, const std::string& design_md,
                   std::vector<Finding>& out);

// ---------------------------------------------------------------------------
// Driver

struct DriverOptions {
  std::string root;           // repo root (contains src/, DESIGN.md, ...)
  std::string compdb;         // compile_commands.json ("" = auto/none)
  std::string baseline;       // baseline file ("" = none)
  std::string json_out;       // write JSON findings here ("" = stdout off)
  bool compact = false;       // print `kind|file|symbol|message` lines
  bool registry_only = false; // pass 3 only (registry_check)
  bool quiet = false;
};

/// Run the configured passes over `opts.root`. Returns the process exit
/// code: 0 clean, 1 findings, 2 usage/environment error.
int run_driver(const DriverOptions& opts);

}  // namespace naplet::analyze
