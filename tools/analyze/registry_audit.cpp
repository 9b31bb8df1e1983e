// Pass 3: invariant-registry cross-checks. Dependency-free by design —
// this pass also ships as the standalone `registry_check` binary.
//
//  * fault-site checks   — literals woven at fault::hit()/
//                          send_with_fault()/ctrl_site() call sites vs.
//                          the canonical kFaultSites registry: grammar,
//                          duplicates, unknown (woven but unregistered)
//                          and stale (registered but never woven).
//  * metric checks       — instrument names read by bench/ must be
//                          registered by src/; constructor-cached
//                          instruments must actually be recorded.
//  * rank-table check    — the LockRank enum vs. the DESIGN.md table
//                          marked `naplet-analyze:lock-rank-table`.
//  * enum-count check    — `enum class X` vs. its `kXCount` constant
//                          (the PR-2 off-by-one, now caught statically).
//  * fsm-incomplete      — every enumerator of a counted enum used by a
//                          `transition()` function must be handled in it.
#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>

#include "resolve.hpp"

namespace naplet::analyze {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool site_grammar_ok(const std::string& site) {
  bool has_dot = false;
  bool segment_empty = true;
  for (char ch : site) {
    if (ch == '.') {
      if (segment_empty) return false;
      has_dot = true;
      segment_empty = true;
      continue;
    }
    const bool ok = (std::islower(static_cast<unsigned char>(ch)) != 0) ||
                    (std::isdigit(static_cast<unsigned char>(ch)) != 0) ||
                    ch == '_';
    if (!ok) return false;
    segment_empty = false;
  }
  return has_dot && !segment_empty;
}

struct SiteUse {
  std::string file;
  int line = 0;
  std::string func;
};

bool is_metric_callee(const std::string& callee) {
  return callee == "counter" || callee == "gauge" || callee == "histogram";
}

bool receiver_is_registry(const Resolver& r, const FuncDecl& fn,
                          const CallSite& cs) {
  if (cs.receiver == "Registry::global()") return true;
  if (cs.receiver.find("registry") != std::string::npos ||
      cs.receiver.find("Registry") != std::string::npos) {
    return true;
  }
  return r.receiver_type(fn, cs) == "Registry";
}

}  // namespace

void registry_pass(const SourceModel& model, const std::string& design_md,
                   std::vector<Finding>& out) {
  Resolver resolver(model);

  // ---------------------------------------------------------- fault sites
  std::map<std::string, SiteUse> woven;
  std::set<std::string> ctrl_stages;
  std::vector<std::string> ctrl_tokens;
  for (const FuncDecl& fn : model.functions) {
    if (!starts_with(fn.file, "src/")) continue;
    if (fn.name == "ctrl_site_token") {
      ctrl_tokens = fn.case_return_literals;
    }
    for (const CallSite& cs : fn.calls) {
      if (cs.str_args.empty()) continue;
      const bool direct_hit =
          cs.callee == "hit" && cs.arg_count_before_first_str == 0;
      const bool wrapped_send =
          cs.callee == "send_with_fault" && cs.arg_count_before_first_str == 0;
      if (direct_hit || wrapped_send) {
        woven.emplace(cs.str_args.front(),
                      SiteUse{fn.file, cs.line, fn.qname()});
      }
      if (cs.callee == "ctrl_site") {
        ctrl_stages.insert(cs.str_args.front());
      }
    }
  }
  for (const std::string& stage : ctrl_stages) {
    for (const std::string& token : ctrl_tokens) {
      woven.emplace("ctrl." + token + "." + stage, SiteUse{});
    }
  }

  std::vector<std::string> canonical;
  std::string canonical_file;
  int canonical_line = 0;
  auto git = model.globals.find("kFaultSites");
  if (git != model.globals.end()) {
    canonical = git->second.str_inits;
    canonical_file = git->second.file;
    canonical_line = git->second.line;
  }

  for (const auto& [site, use] : woven) {
    if (!site_grammar_ok(site)) {
      Finding f;
      f.kind = "fault-site-grammar";
      f.file = use.file.empty() ? canonical_file : use.file;
      f.line = use.line;
      f.symbol = site;
      f.message = "fault site '" + site +
                  "' violates the site grammar (lowercase dotted segments)";
      out.push_back(std::move(f));
    }
  }
  if (!canonical.empty()) {
    std::set<std::string> seen;
    std::set<std::string> canon_set;
    for (const std::string& site : canonical) {
      canon_set.insert(site);
      if (!seen.insert(site).second) {
        Finding f;
        f.kind = "fault-site-duplicate";
        f.file = canonical_file;
        f.line = canonical_line;
        f.symbol = site;
        f.message = "fault site '" + site +
                    "' is listed twice in the kFaultSites registry";
        out.push_back(std::move(f));
      }
      if (!site_grammar_ok(site)) {
        Finding f;
        f.kind = "fault-site-grammar";
        f.file = canonical_file;
        f.line = canonical_line;
        f.symbol = site;
        f.message = "registered fault site '" + site +
                    "' violates the site grammar";
        out.push_back(std::move(f));
      }
    }
    for (const auto& [site, use] : woven) {
      if (canon_set.count(site) != 0U) continue;
      Finding f;
      f.kind = "fault-site-unknown";
      f.file = use.file.empty() ? canonical_file : use.file;
      f.line = use.line;
      f.symbol = site;
      f.message = "fault site '" + site +
                  "' is woven into the code but missing from kFaultSites "
                  "(chaos plans cannot target it; --list-sites lies)";
      out.push_back(std::move(f));
    }
    for (const std::string& site : canon_set) {
      if (woven.count(site) != 0U) continue;
      Finding f;
      f.kind = "fault-site-stale";
      f.file = canonical_file;
      f.line = canonical_line;
      f.symbol = site;
      f.message = "fault site '" + site +
                  "' is registered in kFaultSites but no fault::hit()/"
                  "send_with_fault() weave references it";
      out.push_back(std::move(f));
    }
  }

  // -------------------------------------------------------------- metrics
  std::set<std::string> registered;
  struct CachedInstrument {
    std::string cls;
    std::string member;
    std::string metric;
    std::string file;
    int line = 0;
  };
  std::vector<CachedInstrument> cached;
  for (const FuncDecl& fn : model.functions) {
    if (!starts_with(fn.file, "src/")) continue;
    for (const CallSite& cs : fn.calls) {
      if (!is_metric_callee(cs.callee) || cs.str_args.empty()) continue;
      if (cs.arg_count_before_first_str != 0) continue;
      if (!receiver_is_registry(resolver, fn, cs)) continue;
      registered.insert(cs.str_args.front());
      if (!cs.init_target.empty()) {
        cached.push_back(CachedInstrument{fn.cls, cs.init_target,
                                          cs.str_args.front(), fn.file,
                                          cs.line});
      }
    }
  }
  for (const CachedInstrument& ci : cached) {
    bool recorded = false;
    for (const FuncDecl& fn : model.functions) {
      if (fn.cls != ci.cls) continue;
      if (fn.ident_refs.count(ci.member) != 0U) {
        recorded = true;
        break;
      }
    }
    if (!recorded) {
      Finding f;
      f.kind = "metric-unrecorded";
      f.file = ci.file;
      f.line = ci.line;
      f.symbol = ci.cls + "::" + ci.member;
      f.message = "instrument '" + ci.metric +
                  "' is registered into member '" + ci.member +
                  "' but no method of " + ci.cls + " ever records into it";
      out.push_back(std::move(f));
    }
  }
  for (const FuncDecl& fn : model.functions) {
    if (!starts_with(fn.file, "bench/")) continue;
    for (const CallSite& cs : fn.calls) {
      if (!is_metric_callee(cs.callee) || cs.str_args.empty()) continue;
      if (cs.arg_count_before_first_str != 0) continue;
      const std::string& name = cs.str_args.front();
      if (registered.count(name) != 0U) continue;
      Finding f;
      f.kind = "metric-unregistered";
      f.file = fn.file;
      f.line = cs.line;
      f.symbol = name;
      f.message = "bench reads metric '" + name +
                  "' but no src/ code registers an instrument with that "
                  "name (renamed or removed?)";
      out.push_back(std::move(f));
    }
  }

  // ----------------------------------------------------------- rank table
  auto eit = model.enums.find("LockRank");
  if (eit != model.enums.end() && !design_md.empty()) {
    const std::string marker = "naplet-analyze:lock-rank-table";
    std::size_t pos = design_md.find(marker);
    if (pos != std::string::npos) {
      std::map<std::string, long> table;
      std::istringstream in(design_md.substr(pos));
      std::string line;
      bool in_table = false;
      while (std::getline(in, line)) {
        if (line.empty() || line[0] != '|') {
          if (in_table) break;
          continue;
        }
        in_table = true;
        // | <value> | `kName` | description |
        std::istringstream cells(line);
        std::string cell;
        std::getline(cells, cell, '|');  // leading empty
        std::string value_cell;
        std::string name_cell;
        std::getline(cells, value_cell, '|');
        std::getline(cells, name_cell, '|');
        long value = 0;
        bool numeric = false;
        for (char ch : value_cell) {
          if (std::isdigit(static_cast<unsigned char>(ch)) != 0) {
            value = value * 10 + (ch - '0');
            numeric = true;
          } else if (!std::isspace(static_cast<unsigned char>(ch))) {
            numeric = false;
            break;
          }
        }
        if (!numeric) continue;  // header / separator rows
        std::string name;
        for (char ch : name_cell) {
          if ((std::isalnum(static_cast<unsigned char>(ch)) != 0) ||
              ch == '_') {
            name.push_back(ch);
          } else if (!name.empty()) {
            break;
          }
        }
        if (!name.empty()) table[name] = value;
      }
      for (const auto& [name, value] : eit->second.values) {
        auto tit = table.find(name);
        if (tit == table.end()) {
          Finding f;
          f.kind = "rank-table-missing";
          f.file = eit->second.file;
          f.line = eit->second.line;
          f.symbol = name;
          f.message = "LockRank::" + name +
                      " is not documented in the DESIGN.md rank table";
          out.push_back(std::move(f));
        } else if (tit->second != value) {
          Finding f;
          f.kind = "rank-table-mismatch";
          f.file = eit->second.file;
          f.line = eit->second.line;
          f.symbol = name;
          f.message = "LockRank::" + name + " = " + std::to_string(value) +
                      " but the DESIGN.md table says " +
                      std::to_string(tit->second);
          out.push_back(std::move(f));
        }
      }
      for (const auto& [name, value] : table) {
        if (eit->second.values.count(name) != 0U) continue;
        Finding f;
        f.kind = "rank-table-stale";
        f.file = "DESIGN.md";
        f.symbol = name;
        f.message = "the DESIGN.md rank table documents " + name + " (" +
                    std::to_string(value) +
                    ") which no longer exists in the LockRank enum";
        out.push_back(std::move(f));
      }
    }
  }

  // ----------------------------------------------------------- enum counts
  for (const auto& [const_name, expected] : model.count_constants) {
    // kConnEventCount -> ConnEvent
    const std::string enum_name =
        const_name.substr(1, const_name.size() - 6);
    auto enum_it = model.enums.find(enum_name);
    if (enum_it == model.enums.end()) continue;
    const long actual = static_cast<long>(enum_it->second.enumerators.size());
    if (actual != expected) {
      Finding f;
      f.kind = "enum-count-mismatch";
      f.file = enum_it->second.file;
      f.line = enum_it->second.line;
      f.symbol = const_name;
      f.message = const_name + " = " + std::to_string(expected) + " but enum " +
                  enum_name + " has " + std::to_string(actual) +
                  " enumerators (grid tests and transition tables will "
                  "silently skip the tail)";
      out.push_back(std::move(f));
    }
  }

  // ---------------------------------------------------- FSM completeness
  for (const FuncDecl& fn : model.functions) {
    if (fn.name != "transition") continue;
    std::map<std::string, std::set<std::string>> refs;
    for (const auto& [qual, enumerators] : fn.enum_refs) {
      std::string target = qual;
      auto ait = fn.type_aliases.find(qual);
      if (ait != fn.type_aliases.end()) target = ait->second;
      refs[target].insert(enumerators.begin(), enumerators.end());
    }
    for (const auto& [enum_name, referenced] : refs) {
      auto enum_it = model.enums.find(enum_name);
      if (enum_it == model.enums.end()) continue;
      if (model.count_constants.count("k" + enum_name + "Count") == 0U) {
        continue;  // only counted (table-complete) enums are audited
      }
      std::vector<std::string> missing;
      for (const std::string& e : enum_it->second.enumerators) {
        if (referenced.count(e) == 0U) missing.push_back(e);
      }
      if (missing.empty()) continue;
      std::string list;
      for (const std::string& e : missing) {
        if (!list.empty()) list += ", ";
        list += e;
      }
      Finding f;
      f.kind = "fsm-incomplete";
      f.file = fn.file;
      f.line = fn.line;
      f.symbol = fn.qname() + "/" + enum_name;
      f.message = "transition() never handles " + enum_name + " value(s) " +
                  list + " — unreachable transitions or a missing case";
      out.push_back(std::move(f));
    }
  }
}

}  // namespace naplet::analyze
