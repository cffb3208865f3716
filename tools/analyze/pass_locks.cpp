// Static lock-order analysis. Complements the runtime checker in
// src/support/lock_rank.hpp (which only sees executed interleavings):
// every RankedMutex/RankedSharedMutex declaration is mapped to its rank,
// every guard acquisition site is simulated per-function with brace-scope
// tracking, and a transitive acquired-rank fixpoint over the call-graph
// approximation flags any path whose static rank order is not strictly
// ascending. Suppress a proven-safe site with
// `lint:allow-lock-order(<reason>)` on or above the line.
#include <algorithm>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "analyze/passes.hpp"

namespace sariadne::analyze {

const std::vector<std::pair<std::string, int>>& static_lock_ranks() {
    static const std::vector<std::pair<std::string, int>> kRanks = {
        {"kDirectorySummary", 20},    {"kDirectoryServices", 30},
        {"kDagShard", 40},            {"kKnowledgeBaseTables", 50},
        {"kTaxonomyCache", 60},       {"kMetricsRegistry", 70},
    };
    return kRanks;
}

std::vector<std::pair<std::string, int>> parse_runtime_lock_ranks(
    const Repo& repo) {
    std::vector<std::pair<std::string, int>> ranks;
    const SourceFile* file = repo.find("src/support/lock_rank.hpp");
    if (file == nullptr) return ranks;
    const std::size_t begin = file->code.find("enum class LockRank");
    if (begin == std::string::npos) return ranks;
    const std::size_t open = file->code.find('{', begin);
    const std::size_t close = file->code.find('}', open);
    if (open == std::string::npos || close == std::string::npos) return ranks;
    const std::string body = file->code.substr(open, close - open);
    static const std::regex entry(R"((k\w+)\s*=\s*(\d+))");
    for (auto it = std::sregex_iterator(body.begin(), body.end(), entry);
         it != std::sregex_iterator(); ++it) {
        ranks.emplace_back((*it)[1].str(), std::stoi((*it)[2].str()));
    }
    return ranks;
}

namespace {

struct MutexDecl {
    std::string var;
    std::string rank_name;
    int rank;
    std::size_t file;
    std::size_t line;
};

std::vector<MutexDecl> collect_mutex_decls(const Repo& repo) {
    std::vector<MutexDecl> decls;
    std::map<std::string, int> rank_by_name;
    for (const auto& [name, value] : static_lock_ranks()) {
        rank_by_name[name] = value;
    }
    for (std::size_t fi = 0; fi < repo.files.size(); ++fi) {
        const SourceFile& file = repo.files[fi];
        if (file.top != "src") continue;
        if (file.path.filename() == "lock_rank.hpp") continue;
        const std::string& s = file.code;
        for (const std::string_view type :
             {"RankedMutex", "RankedSharedMutex"}) {
            std::size_t pos = 0;
            while ((pos = s.find(type.data(), pos, type.size())) !=
                   std::string::npos) {
                const std::size_t begin = pos;
                pos += type.size();
                if (begin > 0 && is_ident_char(s[begin - 1])) continue;
                if (pos < s.size() && is_ident_char(s[pos])) continue;
                std::size_t k = pos;
                while (k < s.size() &&
                       std::isspace(static_cast<unsigned char>(s[k])) != 0) {
                    ++k;
                }
                if (k >= s.size() || !is_ident_char(s[k])) continue;
                std::size_t ve = k;
                while (ve < s.size() && is_ident_char(s[ve])) ++ve;
                const std::string var = s.substr(k, ve - k);
                std::size_t b = ve;
                while (b < s.size() &&
                       std::isspace(static_cast<unsigned char>(s[b])) != 0) {
                    ++b;
                }
                if (b >= s.size() || s[b] != '{') continue;
                const std::size_t close = s.find('}', b);
                if (close == std::string::npos) continue;
                const std::string init = s.substr(b + 1, close - b - 1);
                const std::size_t tag = init.find("LockRank::");
                if (tag == std::string::npos) continue;
                std::size_t ne = tag + 10;
                while (ne < init.size() && is_ident_char(init[ne])) ++ne;
                const std::string rank_name = init.substr(tag + 10, ne - tag - 10);
                const auto rank_it = rank_by_name.find(rank_name);
                if (rank_it == rank_by_name.end()) continue;  // drift check
                decls.push_back({var, rank_name, rank_it->second, fi,
                                 file.line_of(begin)});
            }
        }
    }
    return decls;
}

struct Held {
    int rank;
    std::string rank_name;
    std::string mutex;
    std::string guard_var;
    int depth;
    std::size_t line;
};

struct AcquireSite {
    int rank;
    std::string rank_name;
    std::size_t file;
    std::size_t line;
    // Chain step for reporting: npos when this function acquires the
    // rank directly, else the def index the rank is reached through.
    std::size_t via_def = static_cast<std::size_t>(-1);
};

struct CallContext {
    std::size_t caller;
    const BodyEvent* call;
    std::vector<Held> held;
};

}  // namespace

std::vector<Finding> run_lock_pass(const Repo& repo,
                                   const FunctionIndex& index) {
    std::vector<Finding> findings;

    // Cross-check the static table against the runtime constants.
    {
        std::vector<std::pair<std::string, int>> runtime =
            parse_runtime_lock_ranks(repo);
        if (!runtime.empty()) {
            std::vector<std::pair<std::string, int>> expected =
                static_lock_ranks();
            std::sort(runtime.begin(), runtime.end());
            std::sort(expected.begin(), expected.end());
            if (runtime != expected) {
                findings.push_back(
                    {"src/support/lock_rank.hpp", 1, "lock-rank-drift",
                     "runtime LockRank constants differ from the static "
                     "table in tools/analyze/pass_locks.cpp — update both "
                     "together"});
            }
        }
    }

    const std::vector<MutexDecl> decls = collect_mutex_decls(repo);
    // var -> decls, for group-local then global-unique resolution.
    std::map<std::string, std::vector<const MutexDecl*>> by_var;
    for (const MutexDecl& decl : decls) by_var[decl.var].push_back(&decl);

    const auto rank_of = [&](std::size_t caller_file,
                             const std::string& var) -> const MutexDecl* {
        const auto it = by_var.find(var);
        if (it == by_var.end()) return nullptr;
        const auto group_it = index.file_group.find(caller_file);
        if (group_it != index.file_group.end()) {
            for (const MutexDecl* decl : it->second) {
                for (const std::size_t fi : group_it->second) {
                    if (decl->file == fi) return decl;
                }
            }
        }
        // Fall back to a globally unique rank for this variable name;
        // ambiguous names (e.g. two subsystems both naming a member
        // `mutex_`) resolve to nothing rather than to a guess.
        std::set<int> ranks;
        for (const MutexDecl* decl : it->second) ranks.insert(decl->rank);
        return ranks.size() == 1 ? it->second.front() : nullptr;
    };

    // Phase 1: per-function scope-aware simulation. Direct inversions are
    // reported here; acquire summaries and held-at-call contexts feed the
    // transitive phase.
    std::vector<std::vector<AcquireSite>> direct(index.defs.size());
    std::vector<CallContext> contexts;
    for (std::size_t di = 0; di < index.defs.size(); ++di) {
        const FunctionDef& def = index.defs[di];
        const SourceFile& file = repo.files[def.file];
        std::vector<Held> held;
        int depth = 1;
        for (const BodyEvent& ev : def.events) {
            switch (ev.kind) {
                case BodyEvent::Kind::kScopeOpen:
                    ++depth;
                    break;
                case BodyEvent::Kind::kScopeClose: {
                    --depth;
                    held.erase(std::remove_if(held.begin(), held.end(),
                                              [&](const Held& h) {
                                                  return h.depth > depth;
                                              }),
                               held.end());
                    break;
                }
                case BodyEvent::Kind::kUnlock: {
                    held.erase(std::remove_if(held.begin(), held.end(),
                                              [&](const Held& h) {
                                                  return h.guard_var ==
                                                         ev.name;
                                              }),
                               held.end());
                    break;
                }
                case BodyEvent::Kind::kGuard: {
                    const std::size_t line = file.line_of(ev.offset);
                    for (const std::string& var : ev.mutex_args) {
                        const MutexDecl* decl = rank_of(def.file, var);
                        if (decl == nullptr) continue;
                        for (const Held& h : held) {
                            if (decl->rank > h.rank) continue;
                            if (file.suppressed(line,
                                                "lint:allow-lock-order")) {
                                continue;
                            }
                            findings.push_back(
                                {file.rel, line, "lock-order",
                                 def.display() + " acquires " + var + " (" +
                                     decl->rank_name + ", rank " +
                                     std::to_string(decl->rank) +
                                     ") while holding " + h.mutex + " (" +
                                     h.rank_name + ", rank " +
                                     std::to_string(h.rank) +
                                     ") — ranks must be strictly "
                                     "ascending"});
                        }
                        direct[di].push_back({decl->rank, decl->rank_name,
                                              def.file, line});
                        held.push_back({decl->rank, decl->rank_name, var,
                                        ev.guard_var, depth, line});
                    }
                    break;
                }
                case BodyEvent::Kind::kCall: {
                    if (!held.empty()) {
                        contexts.push_back({di, &ev, held});
                    }
                    break;
                }
                default:
                    break;
            }
        }
    }

    // Phase 2: transitive acquired-rank fixpoint over the call graph.
    // trans[di] maps rank -> representative site (with the chain hop).
    std::vector<std::map<int, AcquireSite>> trans(index.defs.size());
    for (std::size_t di = 0; di < index.defs.size(); ++di) {
        for (const AcquireSite& site : direct[di]) {
            trans[di].emplace(site.rank, site);
        }
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t di = 0; di < index.defs.size(); ++di) {
            const FunctionDef& def = index.defs[di];
            for (const BodyEvent& ev : def.events) {
                if (ev.kind != BodyEvent::Kind::kCall) continue;
                for (const std::size_t callee : index.resolve(def, ev)) {
                    for (const auto& [rank, site] : trans[callee]) {
                        if (trans[di].count(rank) != 0) continue;
                        AcquireSite hop = site;
                        hop.via_def = callee;
                        trans[di].emplace(rank, hop);
                        changed = true;
                    }
                }
            }
        }
    }

    const auto chain_string = [&](std::size_t start_def, int rank) {
        std::string chain;
        std::size_t cur = start_def;
        for (int hops = 0; hops < 16; ++hops) {
            chain += index.defs[cur].display();
            const auto it = trans[cur].find(rank);
            if (it == trans[cur].end()) break;
            if (it->second.via_def == static_cast<std::size_t>(-1)) {
                chain += " [" + repo.files[it->second.file].rel + ":" +
                         std::to_string(it->second.line) + "]";
                break;
            }
            chain += " -> ";
            cur = it->second.via_def;
        }
        return chain;
    };

    // Phase 3: calls made while holding a lock, into functions that may
    // transitively acquire an equal-or-lower rank.
    std::set<std::string> dedup;
    for (const CallContext& ctx : contexts) {
        const FunctionDef& caller = index.defs[ctx.caller];
        const SourceFile& file = repo.files[caller.file];
        const std::size_t line = file.line_of(ctx.call->offset);
        int max_rank = 0;
        const Held* max_held = nullptr;
        for (const Held& h : ctx.held) {
            if (h.rank >= max_rank) {
                max_rank = h.rank;
                max_held = &h;
            }
        }
        for (const std::size_t callee : index.resolve(caller, *ctx.call)) {
            for (const auto& [rank, site] : trans[callee]) {
                if (rank > max_rank) continue;
                if (file.suppressed(line, "lint:allow-lock-order")) continue;
                const std::string key = file.rel + ":" +
                                        std::to_string(line) + ":" +
                                        std::to_string(rank);
                if (!dedup.insert(key).second) continue;
                findings.push_back(
                    {file.rel, line, "lock-order",
                     caller.display() + " calls " + chain_string(callee, rank) +
                         " which may acquire " + site.rank_name + " (rank " +
                         std::to_string(rank) + ") while holding " +
                         max_held->mutex + " (" + max_held->rank_name +
                         ", rank " + std::to_string(max_rank) +
                         ") — ranks must be strictly ascending"});
            }
        }
    }

    return findings;
}

}  // namespace sariadne::analyze
