#include "directory/dag.hpp"

#include <algorithm>
#include <cstring>
#include <queue>

#include "support/arena.hpp"
#include "support/contracts.hpp"

namespace sariadne::directory {

namespace {

bool contains(const std::vector<VertexId>& items, VertexId value) {
    return std::find(items.begin(), items.end(), value) != items.end();
}

void erase_value(std::vector<VertexId>& items, VertexId value) {
    items.erase(std::remove(items.begin(), items.end(), value), items.end());
}

/// FIFO over arena storage — the BFS frontier of classification and query
/// traversals. Pops advance a head index instead of shifting elements; the
/// backing ArenaVec is recycled wholesale at the arena's next reset.
struct ArenaQueue {
    explicit ArenaQueue(support::Arena& arena) : items(arena) {}
    support::ArenaVec<VertexId> items;
    std::size_t head = 0;

    bool empty() const noexcept { return head == items.size(); }
    void push(VertexId v) { items.push_back(v); }
    VertexId pop() noexcept { return items[head++]; }
    void restart() noexcept {
        items.clear();
        head = 0;
    }
};

RoleSummary make_role_summary(const std::vector<onto::ConceptRef>& role,
                              const std::vector<desc::CodedConceptSpan>& spans,
                              const std::vector<encoding::CodedInterval>& intervals,
                              bool with_geometry) {
    RoleSummary s;
    s.concepts = static_cast<std::uint32_t>(role.size());
    for (const onto::ConceptRef ref : role) {
        s.mask |= std::uint64_t{1} << (ref.ontology & 63u);
        if (s.sole_ontology == -1) {
            s.sole_ontology = static_cast<std::int64_t>(ref.ontology);
        } else if (s.sole_ontology != static_cast<std::int64_t>(ref.ontology)) {
            s.sole_ontology = -2;  // mixed
        }
    }
    if (s.sole_ontology == -2 || role.empty()) s.sole_ontology = -1;
    if (!with_geometry || role.empty()) return s;

    bool first = true;
    for (const desc::CodedConceptSpan& span : spans) {
        double c_lo_min = 0.0, c_lo_max = 0.0, c_hi_min = 0.0, c_hi_max = 0.0;
        for (std::uint32_t k = 0; k < span.count; ++k) {
            const encoding::Interval& occ = intervals[span.begin + k].interval;
            if (k == 0) {
                c_lo_min = c_lo_max = occ.lo;
                c_hi_min = c_hi_max = occ.hi;
            } else {
                c_lo_min = std::min(c_lo_min, occ.lo);
                c_lo_max = std::max(c_lo_max, occ.lo);
                c_hi_min = std::min(c_hi_min, occ.hi);
                c_hi_max = std::max(c_hi_max, occ.hi);
            }
        }
        if (first) {
            s.occ_lo_min = c_lo_min;
            s.occ_lo_max = c_lo_max;
            s.occ_hi_min = c_hi_min;
            s.occ_hi_max = c_hi_max;
            s.maxlo_min = c_lo_max;
            s.minhi_max = c_hi_min;
            s.minlo_max = c_lo_min;
            s.maxhi_min = c_hi_max;
            first = false;
        } else {
            s.occ_lo_min = std::min(s.occ_lo_min, c_lo_min);
            s.occ_lo_max = std::max(s.occ_lo_max, c_lo_max);
            s.occ_hi_min = std::min(s.occ_hi_min, c_hi_min);
            s.occ_hi_max = std::max(s.occ_hi_max, c_hi_max);
            s.maxlo_min = std::min(s.maxlo_min, c_lo_max);
            s.minhi_max = std::max(s.minhi_max, c_hi_min);
            s.minlo_max = std::max(s.minlo_max, c_lo_min);
            s.maxhi_min = std::min(s.maxhi_min, c_hi_max);
        }
    }
    return s;
}

}  // namespace

MatchSummary make_match_summary(const ResolvedCapability& capability) {
    const desc::CodeSignature& sig = capability.signature;
    const bool geometry =
        sig.valid && sig.global_tag != 0 &&
        sig.inputs.size() == capability.inputs.size() &&
        sig.outputs.size() == capability.outputs.size() &&
        sig.properties.size() == capability.properties.size();
    MatchSummary m;
    m.inputs = make_role_summary(capability.inputs, sig.inputs, sig.intervals,
                                 geometry);
    m.outputs = make_role_summary(capability.outputs, sig.outputs,
                                  sig.intervals, geometry);
    m.properties = make_role_summary(capability.properties, sig.properties,
                                     sig.intervals, geometry);
    m.code_tag = geometry ? sig.global_tag : 0;
    return m;
}

bool quick_reject(const MatchSummary& provider, const MatchSummary& requester,
                  bool codes_fresh) {
    // Emptiness: a clause that expects concepts fails outright when the
    // offering side has none (no oracle call could ever find a partner).
    if (provider.inputs.concepts > 0 && requester.inputs.concepts == 0) {
        return true;
    }
    if (requester.outputs.concepts > 0 && provider.outputs.concepts == 0) {
        return true;
    }
    if (requester.properties.concepts > 0 && provider.properties.concepts == 0) {
        return true;
    }

    // Masks: every expected concept needs a partner in its own ontology
    // (cross-ontology d() is NULL for every oracle), so an ontology bit set
    // on the expecting side but absent from the offering side is fatal.
    // Sound regardless of code versions.
    if ((provider.inputs.mask & ~requester.inputs.mask) != 0) return true;
    if ((requester.outputs.mask & ~provider.outputs.mask) != 0) return true;
    if ((requester.properties.mask & ~provider.properties.mask) != 0) {
        return true;
    }

    if (!codes_fresh) return false;

    // Geometry: containment op ⊇ or needs op.lo <= or.lo and or.hi <= op.hi.
    // Only comparable when both sides of the clause draw from the same
    // single ontology (interval coordinates are per-table).
    //
    // Provider-expects clause (inputs): every provider concept must contain
    // some requester occurrence, so even the provider concept with the
    // largest minimum-lo (minlo_max) needs a requester occurrence starting
    // at or after it, and the one with the smallest maximum-hi (maxhi_min)
    // needs a requester occurrence ending at or before it.
    const auto reject_provider_expects = [](const RoleSummary& p,
                                            const RoleSummary& r) {
        if (p.concepts == 0 || r.concepts == 0) return false;
        if (p.sole_ontology < 0 || p.sole_ontology != r.sole_ontology) {
            return false;
        }
        return p.minlo_max > r.occ_lo_max || p.maxhi_min < r.occ_hi_min;
    };
    // Requester-expects clauses (outputs, properties): every requester
    // concept must be contained in some provider occurrence — dually, the
    // requester concept whose occurrences start earliest (maxlo_min) needs
    // a provider occurrence starting at or before it, and the one ending
    // latest (minhi_max) needs a provider occurrence ending at or after it.
    const auto reject_requester_expects = [](const RoleSummary& r,
                                             const RoleSummary& p) {
        if (p.concepts == 0 || r.concepts == 0) return false;
        if (p.sole_ontology < 0 || p.sole_ontology != r.sole_ontology) {
            return false;
        }
        return r.maxlo_min < p.occ_lo_min || r.minhi_max > p.occ_hi_max;
    };
    if (reject_provider_expects(provider.inputs, requester.inputs)) return true;
    if (reject_requester_expects(requester.outputs, provider.outputs)) {
        return true;
    }
    return reject_requester_expects(requester.properties, provider.properties);
}

void CapabilityDag::add_edge(VertexId from, VertexId to) {
    SARIADNE_EXPECTS(from != to);
    if (!contains(vertices_[from].children, to)) {
        vertices_[from].children.push_back(to);
        vertices_[to].parents.push_back(from);
    }
}

void CapabilityDag::remove_edge(VertexId from, VertexId to) {
    erase_value(vertices_[from].children, to);
    erase_value(vertices_[to].parents, from);
}

VertexId CapabilityDag::insert(DagEntry entry, matching::DistanceOracle& oracle,
                               MatchStats& stats) {
    const ResolvedCapability& cap = entry.capability;

    // Quick-reject context: summaries stamp the whole-environment tag they
    // were built under, so one oracle read covers both sides.
    const MatchSummary cap_summary = make_match_summary(cap);
    const std::uint64_t current_tag = oracle.global_environment_tag();
    const bool cap_fresh =
        current_tag != 0 && cap_summary.code_tag == current_tag;
    const auto vertex_fresh = [&](VertexId v) {
        return cap_fresh && vertices_[v].summary.code_tag == current_tag;
    };

    // Transitivity-doomed cones. Match(v, cap) failing dooms every
    // descendant of v downward (Match(v, w) ∧ Match(w, cap) would imply
    // Match(v, cap)); Match(cap, v) failing dooms every ancestor upward.
    // Only full oracle failures are folded into the doom sets: a
    // quick-rejected vertex is just as provably failed, but its
    // descendants would quick-reject for pennies anyway, and there are
    // orders of magnitude more quick rejects than oracle probes — ORing a
    // cone per quick reject costs more than the prunes it buys. Oracle
    // failures are rare (the summary filter already passed), so the
    // per-failure cone OR is cheap and the per-encounter doom check stays
    // a single bitset test. Each encounter of a vertex bumps exactly one
    // of capability_matches / quick_rejects / reachability_prunes, so the
    // three-way sum equals the number of probe encounters whether pruning
    // is on or off.
    const bool pruning = tuning_.reachability_pruning;

    // All classification scratch (doom bitsets, visited maps, BFS frontier,
    // predecessor/successor lists) lives in the per-thread arena; the reset
    // here recycles the chunks the previous operation grew.
    support::Arena& arena = support::query_scratch_arena();
    arena.reset();
    support::ArenaBitset doomed_down(arena, vertices_.size());
    support::ArenaBitset doomed_up(arena, vertices_.size());

    // Per-vertex dispatch hoisting: a fresh vertex summary (code_tag ==
    // current nonzero tag) proves both CodeSignatures valid and stamped
    // with the oracle's tag — exactly match_capability's fast-path guard —
    // so the encoded kernel is entered directly, skipping the per-call
    // virtual tag probe. Identical outcomes and queries() accounting.
    const auto match_down = [&](VertexId v) -> matching::MatchOutcome {
        const bool fresh = vertex_fresh(v);
        if (quick_reject(vertices_[v].summary, cap_summary, fresh)) {
            ++stats.quick_rejects;
            return {false, 0};
        }
        ++stats.capability_matches;
        const auto outcome =
            fresh ? matching::match_capability_encoded(representative(v), cap,
                                                       oracle)
                  : matching::match_capability(representative(v), cap, oracle);
        if (pruning && !outcome.matched) {
            doomed_down.set(v);
            doomed_down.or_with_clamped(vertices_[v].desc.words(),
                                        vertices_[v].desc.word_count());
        }
        return outcome;
    };
    const auto match_up = [&](VertexId v) -> matching::MatchOutcome {
        const bool fresh = vertex_fresh(v);
        if (quick_reject(cap_summary, vertices_[v].summary, fresh)) {
            ++stats.quick_rejects;
            return {false, 0};
        }
        ++stats.capability_matches;
        const auto outcome =
            fresh ? matching::match_capability_encoded(cap, representative(v),
                                                       oracle)
                  : matching::match_capability(cap, representative(v), oracle);
        if (pruning && !outcome.matched) {
            doomed_up.set(v);
            doomed_up.or_with_clamped(vertices_[v].anc.words(),
                                      vertices_[v].anc.word_count());
        }
        return outcome;
    };

    // Phase 1 — find the lowest matching ancestors: descend from every
    // matching root; a vertex is a direct predecessor of the new capability
    // if Match(vertex, cap) holds but no child of it also matches.
    // Transitivity makes pruning at non-matching vertices sound.
    support::ArenaVec<VertexId> predecessors(arena);
    char* visited_down = arena.alloc_array<char>(vertices_.size());
    std::memset(visited_down, 0, vertices_.size());
    ArenaQueue frontier(arena);

    for (VertexId v = 0; v < vertices_.size(); ++v) {
        if (!vertices_[v].alive || !vertices_[v].parents.empty()) continue;
        const auto outcome = match_down(v);
        if (!outcome.matched) continue;
        // Equivalence short-circuit at the root itself.
        if (outcome.semantic_distance == 0) {
            const auto backward = match_up(v);
            if (backward.matched && backward.semantic_distance == 0) {
                vertices_[v].entries.push_back(std::move(entry));
                ++live_entries_;
                return v;
            }
        }
        visited_down[v] = 1;
        frontier.push(v);
    }

    while (!frontier.empty()) {
        const VertexId v = frontier.pop();
        bool has_matching_child = false;
        for (const VertexId child : vertices_[v].children) {
            if (visited_down[child]) {
                has_matching_child = true;
                continue;
            }
            if (pruning && doomed_down.test(child)) {
                // Provably fails Match(child, cap): an ancestor (or a prior
                // probe of child itself) already failed.
                ++stats.reachability_prunes;
                continue;
            }
            const auto outcome = match_down(child);
            if (!outcome.matched) continue;
            if (outcome.semantic_distance == 0) {
                const auto backward = match_up(child);
                if (backward.matched && backward.semantic_distance == 0) {
                    vertices_[child].entries.push_back(std::move(entry));
                    ++live_entries_;
                    return child;
                }
            }
            has_matching_child = true;
            visited_down[child] = 1;
            frontier.push(child);
        }
        if (!has_matching_child) predecessors.push_back(v);
    }

    // Phase 2 — find the highest matched descendants: ascend from every
    // leaf the new capability matches; a vertex is a direct successor if
    // Match(cap, vertex) holds but no parent of it also matches. (A leaf
    // cannot have been visited by the ascent — it has no children — but it
    // may already be doomed by a failed backward probe in Phase 1.)
    support::ArenaVec<VertexId> successors(arena);
    char* visited_up = arena.alloc_array<char>(vertices_.size());
    std::memset(visited_up, 0, vertices_.size());
    frontier.restart();
    for (VertexId v = 0; v < vertices_.size(); ++v) {
        if (!vertices_[v].alive || !vertices_[v].children.empty()) continue;
        if (pruning && doomed_up.test(v)) {
            ++stats.reachability_prunes;
            continue;
        }
        if (!match_up(v).matched) continue;
        visited_up[v] = 1;
        frontier.push(v);
    }
    while (!frontier.empty()) {
        const VertexId v = frontier.pop();
        bool has_matching_parent = false;
        for (const VertexId parent : vertices_[v].parents) {
            if (visited_up[parent]) {
                has_matching_parent = true;
                continue;
            }
            if (pruning && doomed_up.test(parent)) {
                ++stats.reachability_prunes;
                continue;
            }
            if (match_up(parent).matched) {
                has_matching_parent = true;
                visited_up[parent] = 1;
                frontier.push(parent);
            }
        }
        if (!has_matching_parent) successors.push_back(v);
    }

    // Mutual-match guard: a vertex v with Match(v, cap) AND Match(cap, v)
    // at nonzero distance would create a cycle if wired below the new
    // vertex. Every vertex matching cap downward was flagged in Phase 1
    // (all such vertices sit under a matching root, by transitivity), so
    // dropping flagged successors removes exactly the cycle-forming edges;
    // reachability is preserved because those vertices already sit above.
    std::size_t kept = 0;
    for (std::size_t k = 0; k < successors.size(); ++k) {
        if (visited_down[successors[k]] == 0) successors[kept++] = successors[k];
    }
    successors.truncate(kept);

    // Phase 3 — wire the new vertex in. Dead slots are recycled first so
    // the vertex vector tracks live size, not publish history.
    VertexId id;
    if (!free_.empty()) {
        id = free_.back();
        free_.pop_back();
        vertices_[id] = Vertex{};
    } else {
        id = static_cast<VertexId>(vertices_.size());
        vertices_.push_back(Vertex{});
    }
    vertices_[id].entries.push_back(std::move(entry));
    vertices_[id].summary = cap_summary;
    ++live_vertices_;
    ++live_entries_;

    // Closure of the new vertex from its neighbors' (still-exact) sets:
    // its ancestors are the predecessors and everything above them, its
    // descendants the successors and everything below them.
    for (const VertexId pred : predecessors) {
        vertices_[id].anc.or_with(vertices_[pred].anc);
        vertices_[id].anc.set(pred);
    }
    for (const VertexId succ : successors) {
        vertices_[id].desc.or_with(vertices_[succ].desc);
        vertices_[id].desc.set(succ);
    }

    for (const VertexId pred : predecessors) add_edge(pred, id);
    for (const VertexId succ : successors) add_edge(id, succ);

    // Propagate: every ancestor now also reaches id and id's whole cone;
    // mirror for descendants. (Predecessors form an antichain — a matching
    // path between two of them would make every intermediate vertex match,
    // contradicting the "no matching child" condition — so the new edges
    // themselves are never redundant; likewise successors.)
    vertices_[id].anc.for_each_set([&](std::size_t a) {
        vertices_[a].desc.set(id);
        vertices_[a].desc.or_with(vertices_[id].desc);
    });
    vertices_[id].desc.for_each_set([&](std::size_t d) {
        vertices_[d].anc.set(id);
        vertices_[d].anc.or_with(vertices_[id].anc);
    });

    // Drop every edge the new vertex now mediates: any ancestor's direct
    // child inside id's cone has a replacement path through id (which
    // cannot contain the dropped edge — that would close a cycle). This
    // subsumes the old predecessor×successor removal and keeps the DAG
    // transitively reduced under insertion: with edges X→P and X→S, wiring
    // a new C between P and S used to leave the now-redundant X→S behind.
    vertices_[id].anc.for_each_set([&](std::size_t a) {
        const std::vector<VertexId> direct = vertices_[a].children;
        for (const VertexId c : direct) {
            if (c != id && vertices_[id].desc.test(c)) {
                remove_edge(static_cast<VertexId>(a), c);
            }
        }
    });
    return id;
}

std::size_t CapabilityDag::remove_service(ServiceId service) {
    std::size_t removed = 0;
    bool needs_rebuild = false;
    // Edges actually created by splicing — the only candidates for
    // transitive redundancy afterwards (removal never grows reachability,
    // so a surviving pre-existing edge cannot become redundant).
    std::vector<std::pair<VertexId, VertexId>> spliced;

    for (VertexId v = 0; v < vertices_.size(); ++v) {
        Vertex& vertex = vertices_[v];
        if (!vertex.alive) continue;
        const auto old_size = vertex.entries.size();
        // The summary only mirrors entries.front(); capture whether that
        // representative is about to be evicted before erasing.
        const bool representative_leaving =
            !vertex.entries.empty() &&
            vertex.entries.front().service == service;
        vertex.entries.erase(
            std::remove_if(vertex.entries.begin(), vertex.entries.end(),
                           [&](const DagEntry& e) { return e.service == service; }),
            vertex.entries.end());
        const std::size_t dropped = old_size - vertex.entries.size();
        removed += dropped;
        live_entries_ -= dropped;
        if (!vertex.entries.empty()) {
            if (representative_leaving) {
                vertex.summary = make_match_summary(representative(v));
            }
            continue;
        }

        // Vertex died: splice parents to children to preserve reachability.
        // Chained deaths resolve because the loop runs in slot order — a
        // later-dying parent re-splices its own parents over these edges.
        // Splices may duplicate paths the surviving graph already has;
        // those edges are culled against the rebuilt closure below.
        for (const VertexId parent : vertex.parents) {
            erase_value(vertices_[parent].children, v);
            for (const VertexId child : vertex.children) {
                if (!contains(vertices_[parent].children, child)) {
                    vertices_[parent].children.push_back(child);
                    vertices_[child].parents.push_back(parent);
                    spliced.emplace_back(parent, child);
                }
            }
        }
        for (const VertexId child : vertex.children) {
            erase_value(vertices_[child].parents, v);
        }
        if (vertex.parents.empty() || vertex.children.empty()) {
            // No path ran *through* a source/sink vertex, so the closure
            // only loses v itself: clear its bit from both directions.
            vertex.anc.for_each_set([&](std::size_t a) {
                vertices_[a].desc.reset(v);
            });
            vertex.desc.for_each_set([&](std::size_t d) {
                vertices_[d].anc.reset(v);
            });
        } else {
            needs_rebuild = true;
        }
        vertex.anc.clear();
        vertex.desc.clear();
        vertex.parents.clear();
        vertex.children.clear();
        vertex.entries.shrink_to_fit();
        vertex.alive = false;
        --live_vertices_;
        free_.push_back(v);
    }

    // An interior death invalidates the closure wholesale (paths through
    // the dead vertex may or may not survive via splices): recompute once
    // for the whole removal, then use the exact closure to drop the splice
    // edges the surviving graph already implies.
    if (needs_rebuild) rebuild_reachability();
    for (const auto& [parent, child] : spliced) {
        if (!vertices_[parent].alive || !vertices_[child].alive) continue;
        if (!contains(vertices_[parent].children, child)) continue;
        if (edge_redundant(parent, child)) remove_edge(parent, child);
    }
    return removed;
}

bool CapabilityDag::edge_redundant(VertexId parent, VertexId child) const {
    // The direct edge is implied iff some *other* child of `parent`
    // reaches `child` (such a path cannot itself use the direct edge:
    // sibling → … → parent would close a cycle). Removing an implied edge
    // leaves the closure — and hence the bitsets — unchanged.
    for (const VertexId sibling : vertices_[parent].children) {
        if (sibling != child && is_reachable(sibling, child)) return true;
    }
    return false;
}

void CapabilityDag::rebuild_reachability() {
    std::vector<std::size_t> pending(vertices_.size(), 0);
    std::vector<VertexId> order;
    order.reserve(live_vertices_);
    std::queue<VertexId> ready;
    for (VertexId v = 0; v < vertices_.size(); ++v) {
        Vertex& vertex = vertices_[v];
        vertex.anc.clear();
        vertex.desc.clear();
        if (!vertex.alive) continue;
        pending[v] = vertex.parents.size();
        if (pending[v] == 0) ready.push(v);
    }
    while (!ready.empty()) {
        const VertexId v = ready.front();
        ready.pop();
        order.push_back(v);
        for (const VertexId child : vertices_[v].children) {
            if (--pending[child] == 0) ready.push(child);
        }
    }
    SARIADNE_EXPECTS(order.size() == live_vertices_);
    // Ancestors flow top-down, descendants bottom-up — one pass each.
    for (const VertexId v : order) {
        for (const VertexId child : vertices_[v].children) {
            vertices_[child].anc.or_with(vertices_[v].anc);
            vertices_[child].anc.set(v);
        }
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        for (const VertexId child : vertices_[*it].children) {
            vertices_[*it].desc.or_with(vertices_[child].desc);
            vertices_[*it].desc.set(child);
        }
    }
}

void CapabilityDag::query_all_into(const ResolvedCapability& request,
                                   matching::DistanceOracle& oracle,
                                   MatchStats& stats, support::Arena& arena,
                                   support::ArenaVec<RawHit>& hits) const {
    // Collect all matching vertices reachable from matching roots, pruning
    // sub-hierarchies whose top fails (sound by transitivity of Match).
    char* visited = arena.alloc_array<char>(vertices_.size());
    std::memset(visited, 0, vertices_.size());
    ArenaQueue frontier(arena);

    // Quick-reject context, computed once per query: summaries stamp the
    // whole-environment tag they were built under, so both sides compare
    // against one oracle read.
    const MatchSummary request_summary = make_match_summary(request);
    const std::uint64_t current_tag = oracle.global_environment_tag();
    const bool request_fresh =
        current_tag != 0 && request_summary.code_tag == current_tag;

    // An oracle-failed vertex dooms its whole descendant cone
    // (transitivity): a later encounter of a doomed vertex via another
    // matching parent is settled by one bitset test and counted as a
    // reachability_prune. Quick-rejected vertices are not folded in —
    // their descendants quick-reject on their own for less than the cone
    // OR would cost. Each encountered vertex bumps exactly one of the
    // three probe counters, pruning on or off.
    const bool pruning = tuning_.reachability_pruning;
    support::ArenaBitset doomed(arena, vertices_.size());

    const auto try_vertex = [&](VertexId v) {
        visited[v] = 1;
        const bool fresh = request_fresh &&
                           vertices_[v].summary.code_tag == current_tag;
        if (quick_reject(vertices_[v].summary, request_summary, fresh)) {
            // Provably no Match at v, hence (by transitivity) none below:
            // prune the subtree without touching the oracle.
            ++stats.quick_rejects;
            return;
        }
        ++stats.capability_matches;
        // `fresh` proves both CodeSignatures valid and stamped with the
        // oracle's current nonzero tag — match_capability's fast-path
        // guard — so the encoded kernel is entered directly, skipping the
        // per-vertex virtual tag probe (identical outcome and accounting).
        const auto outcome =
            fresh ? matching::match_capability_encoded(representative(v),
                                                       request, oracle)
                  : matching::match_capability(representative(v), request,
                                               oracle);
        if (outcome.matched) {
            for (const DagEntry& entry : vertices_[v].entries) {
                // Pin the names into the arena: the DagEntry strings die
                // with a concurrent remove once the shard lock drops.
                const std::string& svc = entry.capability.service_name;
                const std::string& cap = entry.capability.name;
                hits.push_back(RawHit{
                    entry.service,
                    std::string_view(arena.copy_bytes(svc.data(), svc.size()),
                                     svc.size()),
                    std::string_view(arena.copy_bytes(cap.data(), cap.size()),
                                     cap.size()),
                    outcome.semantic_distance});
            }
            frontier.push(v);
        } else if (pruning) {
            doomed.or_with_clamped(vertices_[v].desc.words(),
                                   vertices_[v].desc.word_count());
        }
    };

    for (VertexId v = 0; v < vertices_.size(); ++v) {
        if (vertices_[v].alive && vertices_[v].parents.empty()) try_vertex(v);
    }
    while (!frontier.empty()) {
        const VertexId v = frontier.pop();
        for (const VertexId child : vertices_[v].children) {
            if (visited[child]) continue;
            if (pruning && doomed.test(child)) {
                visited[child] = 1;
                ++stats.reachability_prunes;
                continue;
            }
            try_vertex(child);
        }
    }
}

std::vector<VertexId> CapabilityDag::root_ids() const {
    std::vector<VertexId> roots;
    for (VertexId v = 0; v < vertices_.size(); ++v) {
        if (vertices_[v].alive && vertices_[v].parents.empty()) roots.push_back(v);
    }
    return roots;
}

std::vector<VertexId> CapabilityDag::leaf_ids() const {
    std::vector<VertexId> leaves;
    for (VertexId v = 0; v < vertices_.size(); ++v) {
        if (vertices_[v].alive && vertices_[v].children.empty()) {
            leaves.push_back(v);
        }
    }
    return leaves;
}

const std::vector<DagEntry>& CapabilityDag::entries(VertexId vertex) const {
    SARIADNE_EXPECTS(vertex < vertices_.size() && vertices_[vertex].alive);
    return vertices_[vertex].entries;
}

const std::vector<VertexId>& CapabilityDag::parents(VertexId vertex) const {
    SARIADNE_EXPECTS(vertex < vertices_.size() && vertices_[vertex].alive);
    return vertices_[vertex].parents;
}

const std::vector<VertexId>& CapabilityDag::children(VertexId vertex) const {
    SARIADNE_EXPECTS(vertex < vertices_.size() && vertices_[vertex].alive);
    return vertices_[vertex].children;
}

bool CapabilityDag::validate(matching::DistanceOracle& oracle) const {
    std::size_t live_seen = 0;
    std::size_t entries_seen = 0;
    for (VertexId v = 0; v < vertices_.size(); ++v) {
        const Vertex& vertex = vertices_[v];
        if (!vertex.alive) {
            if (!vertex.parents.empty() || !vertex.children.empty()) return false;
            // Dead slots must hold no closure bits, or slot reuse would
            // resurrect stale reachability.
            if (!vertex.anc.none() || !vertex.desc.none()) return false;
            continue;
        }
        ++live_seen;
        entries_seen += vertex.entries.size();
        if (vertex.entries.empty()) return false;
        for (const VertexId child : vertex.children) {
            if (child == v) return false;
            if (child >= vertices_.size() || !vertices_[child].alive) return false;
            if (!contains(vertices_[child].parents, v)) return false;
            // Edge semantics: Match(parent, child) must hold.
            if (!matching::matches(representative(v), representative(child),
                                   oracle)) {
                return false;
            }
        }
        for (const VertexId parent : vertex.parents) {
            if (!contains(vertices_[parent].children, v)) return false;
        }
        // Entries sharing the vertex must be equivalent to the representative.
        for (const DagEntry& entry : vertex.entries) {
            if (!matching::equivalent_capabilities(representative(v),
                                                   entry.capability, oracle)) {
                return false;
            }
        }
    }

    // Acyclicity via Kahn's algorithm over live vertices.
    std::vector<std::size_t> pending(vertices_.size(), 0);
    std::queue<VertexId> ready;
    std::size_t live = 0;
    for (VertexId v = 0; v < vertices_.size(); ++v) {
        if (!vertices_[v].alive) continue;
        ++live;
        pending[v] = vertices_[v].parents.size();
        if (pending[v] == 0) ready.push(v);
    }
    std::size_t processed = 0;
    while (!ready.empty()) {
        const VertexId v = ready.front();
        ready.pop();
        ++processed;
        for (const VertexId child : vertices_[v].children) {
            if (--pending[child] == 0) ready.push(child);
        }
    }
    if (processed != live) return false;
    if (live != live_vertices_ || entries_seen != live_entries_ ||
        live != live_seen) {
        return false;
    }

    // Ground-truth closure via per-vertex BFS (independent of the
    // incremental bitset maintenance being checked). Acyclicity has been
    // established above, so the walks terminate.
    std::vector<support::DynBitset> reach(vertices_.size());
    std::vector<char> seen(vertices_.size(), 0);
    std::vector<VertexId> stack;
    for (VertexId v = 0; v < vertices_.size(); ++v) {
        if (!vertices_[v].alive) continue;
        std::fill(seen.begin(), seen.end(), 0);
        stack.assign(vertices_[v].children.begin(),
                     vertices_[v].children.end());
        for (const VertexId child : vertices_[v].children) seen[child] = 1;
        while (!stack.empty()) {
            const VertexId u = stack.back();
            stack.pop_back();
            reach[v].set(u);
            for (const VertexId next : vertices_[u].children) {
                if (!seen[next]) {
                    seen[next] = 1;
                    stack.push_back(next);
                }
            }
        }
    }

    // The stored descendant sets must equal BFS reachability exactly, and
    // the ancestor sets must be their transpose.
    std::vector<support::DynBitset> reverse(vertices_.size());
    for (VertexId v = 0; v < vertices_.size(); ++v) {
        if (!vertices_[v].alive) continue;
        reach[v].for_each_set(
            [&](std::size_t u) { reverse[u].set(v); });
    }
    for (VertexId v = 0; v < vertices_.size(); ++v) {
        if (!vertices_[v].alive) continue;
        if (!(vertices_[v].desc == reach[v])) return false;
        if (!(vertices_[v].anc == reverse[v])) return false;
    }

    // Transitive reduction: no edge may be implied by a sibling's cone.
    for (VertexId v = 0; v < vertices_.size(); ++v) {
        if (!vertices_[v].alive) continue;
        for (const VertexId child : vertices_[v].children) {
            for (const VertexId sibling : vertices_[v].children) {
                if (sibling != child && reach[sibling].test(child)) {
                    return false;
                }
            }
        }
    }
    return true;
}

}  // namespace sariadne::directory
