#include "analyze/callgraph.hpp"

#include <algorithm>
#include <array>
#include <cctype>

namespace sariadne::analyze {

namespace {

bool is_ident_start(char c) {
    return (std::isalpha(static_cast<unsigned char>(c)) != 0) || c == '_';
}

bool is_upper(char c) { return std::isupper(static_cast<unsigned char>(c)) != 0; }

std::size_t skip_ws(const std::string& s, std::size_t i) {
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i])) != 0) {
        ++i;
    }
    return i;
}

std::size_t rskip_ws(const std::string& s, std::size_t i) {
    // Returns the index of the last non-ws char at or before i, or npos.
    while (i != static_cast<std::size_t>(-1) &&
           std::isspace(static_cast<unsigned char>(s[i])) != 0) {
        --i;
    }
    return i;
}

std::size_t word_end(const std::string& s, std::size_t i) {
    while (i < s.size() && is_ident_char(s[i])) ++i;
    return i;
}

std::size_t word_begin(const std::string& s, std::size_t i) {
    // i points at the last char of the word; returns its first index.
    while (i > 0 && is_ident_char(s[i - 1])) --i;
    return i;
}

/// Matches the paren/brace group opening at `open`; returns the index of
/// the closing char, or npos when unbalanced.
std::size_t match_group(const std::string& s, std::size_t open, char oc,
                        char cc) {
    int depth = 0;
    for (std::size_t i = open; i < s.size(); ++i) {
        if (s[i] == oc) {
            ++depth;
        } else if (s[i] == cc) {
            if (--depth == 0) return i;
        }
    }
    return std::string::npos;
}

/// Consumes a template argument list starting at '<', bailing out (returns
/// `i` unchanged) if the brackets do not close before a ';', '{' or '}' —
/// which means the '<' was a comparison, not template args.
std::size_t consume_angles(const std::string& s, std::size_t i) {
    if (i >= s.size() || s[i] != '<') return i;
    int depth = 0;
    for (std::size_t j = i; j < s.size(); ++j) {
        const char c = s[j];
        if (c == '<') {
            ++depth;
        } else if (c == '>') {
            if (--depth == 0) return j + 1;
        } else if (c == ';' || c == '{' || c == '}') {
            return i;
        }
    }
    return i;
}

const std::set<std::string>& rejected_names() {
    static const std::set<std::string> kSet = {
        "if",       "for",      "while",    "switch",   "return",
        "catch",    "sizeof",   "alignof",  "decltype", "new",
        "delete",   "throw",    "else",     "do",       "case",
        "operator", "constexpr", "requires", "noexcept", "alignas",
        "static_assert", "defined", "assert", "typedef", "using",
        "int",      "char",     "bool",     "double",   "float",
        "long",     "short",    "unsigned", "signed",   "void",
        "auto",     "template", "typename", "namespace", "static_cast",
        "dynamic_cast", "reinterpret_cast", "const_cast", "co_await",
        "co_return", "co_yield",
    };
    return kSet;
}

const std::set<std::string>& guard_types() {
    static const std::set<std::string> kSet = {"lock_guard", "unique_lock",
                                              "shared_lock", "scoped_lock"};
    return kSet;
}

struct ClassRegion {
    std::string name;
    std::size_t begin;
    std::size_t end;
};

std::vector<ClassRegion> find_class_regions(const std::string& s) {
    std::vector<ClassRegion> regions;
    for (std::size_t i = 0; i + 5 < s.size(); ++i) {
        if (!is_ident_start(s[i]) || (i > 0 && is_ident_char(s[i - 1]))) {
            continue;
        }
        const std::size_t e = word_end(s, i);
        const std::string w = s.substr(i, e - i);
        if (w != "class" && w != "struct") {
            i = e - 1;
            continue;
        }
        // `enum class` is not a class region.
        const std::size_t p = rskip_ws(s, i == 0 ? std::string::npos : i - 1);
        if (p != std::string::npos && is_ident_char(s[p])) {
            const std::size_t wb = word_begin(s, p);
            if (s.substr(wb, p + 1 - wb) == "enum") {
                i = e - 1;
                continue;
            }
        }
        std::size_t j = skip_ws(s, e);
        if (j >= s.size() || !is_ident_start(s[j])) {
            i = e - 1;
            continue;  // anonymous struct / template-parameter `class`
        }
        const std::size_t name_end = word_end(s, j);
        const std::string name = s.substr(j, name_end - j);
        // Scan to the region opener, rejecting forward declarations and
        // template parameters. ',' is allowed (base-class lists); '>' or
        // ')' or '=' or ';' first means this was not a definition.
        std::size_t k = name_end;
        int angle = 0;
        bool is_def = false;
        for (; k < s.size(); ++k) {
            const char c = s[k];
            if (c == '<') ++angle;
            if (c == '>' && angle > 0) {
                --angle;
                continue;
            }
            if (angle > 0) continue;
            if (c == '{') {
                is_def = true;
                break;
            }
            if (c == ';' || c == '>' || c == ')' || c == '=') break;
        }
        if (!is_def) {
            i = e - 1;
            continue;
        }
        const std::size_t close = match_group(s, k, '{', '}');
        if (close == std::string::npos) {
            i = e - 1;
            continue;
        }
        regions.push_back({name, k, close + 1});
        i = name_end - 1;
    }
    return regions;
}

/// After the parameter list's ')': consume trailing qualifiers
/// (const/noexcept(...)/&/&&/override/final/-> ret) and an optional
/// constructor initialiser list. Returns the offset of the body '{', or
/// npos when this is not a definition.
std::size_t find_body_brace(const std::string& s, std::size_t after_paren) {
    std::size_t j = after_paren;
    for (;;) {
        j = skip_ws(s, j);
        if (j >= s.size()) return std::string::npos;
        if (is_ident_start(s[j])) {
            const std::size_t e = word_end(s, j);
            const std::string w = s.substr(j, e - j);
            if (w == "const" || w == "noexcept" || w == "override" ||
                w == "final" || w == "mutable" || w == "requires") {
                j = skip_ws(s, e);
                if (j < s.size() && s[j] == '(') {
                    const std::size_t close = match_group(s, j, '(', ')');
                    if (close == std::string::npos) return std::string::npos;
                    j = close + 1;
                }
                continue;
            }
            return std::string::npos;  // `Foo bar(x) baz` — not a def
        }
        if (s[j] == '&') {
            ++j;
            if (j < s.size() && s[j] == '&') ++j;
            continue;
        }
        if (s[j] == '-' && j + 1 < s.size() && s[j + 1] == '>') {
            // Trailing return type: consume to the body '{' or a ';'.
            j += 2;
            int angle = 0;
            while (j < s.size()) {
                const char c = s[j];
                if (c == '<') ++angle;
                if (c == '>' && angle > 0) --angle;
                if (angle == 0 && (c == '{' || c == ';')) break;
                ++j;
            }
            continue;
        }
        break;
    }
    if (s[j] == '{') return j;
    if (s[j] == ':' && (j + 1 >= s.size() || s[j + 1] != ':')) {
        // Constructor initialiser list: `: member_(...), other_{...} {`.
        ++j;
        for (;;) {
            j = skip_ws(s, j);
            if (j < s.size() && s[j] == '{') return j;  // defensive
            if (j >= s.size() || !is_ident_start(s[j])) {
                return std::string::npos;
            }
            j = word_end(s, j);
            while (j + 1 < s.size() && s[j] == ':' && s[j + 1] == ':') {
                j = word_end(s, j + 2);
            }
            j = consume_angles(s, skip_ws(s, j));
            j = skip_ws(s, j);
            if (j >= s.size()) return std::string::npos;
            std::size_t close;
            if (s[j] == '(') {
                close = match_group(s, j, '(', ')');
            } else if (s[j] == '{') {
                close = match_group(s, j, '{', '}');
            } else {
                return std::string::npos;
            }
            if (close == std::string::npos) return std::string::npos;
            j = skip_ws(s, close + 1);
            if (j < s.size() && s[j] == ',') {
                ++j;
                continue;
            }
            if (j < s.size() && s[j] == '{') return j;
            return std::string::npos;
        }
    }
    return std::string::npos;
}

/// Reads the `A::B::` qualifier chain ending just before `name_begin`;
/// returns the last segment ("" if none). `chain_begin` receives the
/// start offset of the whole chain (for '~' destructor detection).
std::string read_qualifier(const std::string& s, std::size_t name_begin,
                           std::size_t& chain_begin) {
    chain_begin = name_begin;
    std::string last;
    std::size_t p = name_begin;
    while (p >= 2 && s[p - 1] == ':' && s[p - 2] == ':') {
        std::size_t q = p - 2;
        if (q == 0 || !is_ident_char(s[q - 1])) break;
        const std::size_t wb = word_begin(s, q - 1);
        if (last.empty()) last = s.substr(wb, q - wb);
        chain_begin = wb;
        p = wb;
    }
    // Only the innermost segment matters; but for a chain like
    // `sariadne::DagIndex::insert`, `last` was set on the first (closest)
    // segment — which is what we want.
    return last;
}

struct MemberAccess {
    std::string receiver;   // "" when not a member access
    std::string qualifier;  // "" when not qualified
    bool accessed = false;  // true when preceded by '.' or '->'
};

MemberAccess read_access(const std::string& s, std::size_t name_begin) {
    MemberAccess access;
    if (name_begin == 0) return access;
    std::size_t p = rskip_ws(s, name_begin - 1);
    if (p == std::string::npos) return access;
    if (s[p] == '~') return access;  // destructor mention
    std::size_t recv_end = std::string::npos;
    if (s[p] == '.') {
        access.accessed = true;
        recv_end = p == 0 ? std::string::npos : p - 1;
    } else if (s[p] == '>' && p >= 1 && s[p - 1] == '-') {
        access.accessed = true;
        recv_end = p < 2 ? std::string::npos : p - 2;
    } else if (s[p] == ':' && p >= 1 && s[p - 1] == ':') {
        std::size_t q = p < 2 ? std::string::npos : rskip_ws(s, p - 2);
        if (q != std::string::npos && is_ident_char(s[q])) {
            const std::size_t wb = word_begin(s, q);
            access.qualifier = s.substr(wb, q + 1 - wb);
        }
        return access;
    } else {
        return access;
    }
    if (recv_end == std::string::npos) return access;
    std::size_t q = rskip_ws(s, recv_end);
    if (q == std::string::npos) return access;
    if (s[q] == ']') {
        // `shards_[s].mutex` — skip the subscript, name the array.
        int depth = 0;
        while (q != static_cast<std::size_t>(-1)) {
            if (s[q] == ']') ++depth;
            if (s[q] == '[' && --depth == 0) break;
            --q;
        }
        if (q == static_cast<std::size_t>(-1) || q == 0) return access;
        q = rskip_ws(s, q - 1);
        if (q == std::string::npos) return access;
    }
    if (!is_ident_char(s[q])) return access;  // chained call `f().g()`
    const std::size_t wb = word_begin(s, q);
    access.receiver = s.substr(wb, q + 1 - wb);
    if (access.receiver == "this") access.receiver = "this";
    return access;
}

std::string prev_word(const std::string& s, std::size_t i) {
    if (i == 0) return {};
    const std::size_t p = rskip_ws(s, i - 1);
    if (p == std::string::npos || !is_ident_char(s[p])) return {};
    const std::size_t wb = word_begin(s, p);
    return s.substr(wb, p + 1 - wb);
}

/// Trailing identifier of a mutex argument expression:
/// `shards_[s].mutex` -> "mutex"; `const_cast<M&>(mutex_)` ->
/// "mutex_"; `*ptr` -> "ptr".
std::string mutex_arg_name(std::string arg) {
    const auto first = arg.find_first_not_of(" \t\n");
    if (first == std::string::npos) return {};
    arg = arg.substr(first);
    if (arg.rfind("const_cast", 0) == 0) {
        const std::size_t open = arg.find('(');
        if (open != std::string::npos) {
            const std::size_t close = match_group(arg, open, '(', ')');
            if (close != std::string::npos) {
                return mutex_arg_name(arg.substr(open + 1, close - open - 1));
            }
        }
    }
    std::size_t i = arg.size();
    while (i > 0 && !is_ident_char(arg[i - 1])) --i;
    if (i == 0) return {};
    const std::size_t e = i;
    while (i > 0 && is_ident_char(arg[i - 1])) --i;
    return arg.substr(i, e - i);
}

std::vector<std::string> split_top_args(const std::string& args) {
    std::vector<std::string> out;
    int paren = 0;
    int angle = 0;
    int brace = 0;
    std::size_t start = 0;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const char c = args[i];
        if (c == '(') ++paren;
        if (c == ')') --paren;
        if (c == '<') ++angle;
        if (c == '>' && angle > 0) --angle;
        if (c == '{') ++brace;
        if (c == '}') --brace;
        if (c == ',' && paren == 0 && angle == 0 && brace == 0) {
            out.push_back(args.substr(start, i - start));
            start = i + 1;
        }
    }
    out.push_back(args.substr(start));
    return out;
}

bool is_lock_tag(const std::string& arg) {
    return arg.find("try_to_lock") != std::string::npos ||
           arg.find("adopt_lock") != std::string::npos ||
           arg.find("defer_lock") != std::string::npos;
}

/// An event with its kind and offset set; the caller fills the fields its
/// kind uses.
BodyEvent make_event(BodyEvent::Kind kind, std::size_t offset) {
    BodyEvent ev;
    ev.kind = kind;
    ev.offset = offset;
    return ev;
}

void collect_body_events(const std::string& s, FunctionDef& def,
                         const std::vector<std::pair<std::size_t, std::size_t>>&
                             nested) {
    std::size_t j = def.body_begin + 1;
    const std::size_t stop = def.body_end > 0 ? def.body_end - 1 : 0;
    while (j < stop) {
        bool skipped = false;
        for (const auto& [nb, ne] : nested) {
            if (j >= nb && j < ne) {
                j = ne;
                skipped = true;
                break;
            }
        }
        if (skipped) continue;
        const char c = s[j];
        if (c == '{') {
            def.events.push_back(make_event(BodyEvent::Kind::kScopeOpen, j));
            ++j;
            continue;
        }
        if (c == '}') {
            def.events.push_back(make_event(BodyEvent::Kind::kScopeClose, j));
            ++j;
            continue;
        }
        if (!is_ident_start(c) || (j > 0 && is_ident_char(s[j - 1]))) {
            ++j;
            continue;
        }
        const std::size_t e = word_end(s, j);
        const std::string w = s.substr(j, e - j);
        if (guard_types().count(w) != 0) {
            std::size_t k = skip_ws(s, e);
            k = consume_angles(s, k);
            k = skip_ws(s, k);
            std::string var;
            if (k < s.size() && is_ident_start(s[k])) {
                const std::size_t ve = word_end(s, k);
                var = s.substr(k, ve - k);
                k = skip_ws(s, ve);
            }
            if (k < s.size() && (s[k] == '(' || s[k] == '{')) {
                const char oc = s[k];
                const char cc = oc == '(' ? ')' : '}';
                const std::size_t close = match_group(s, k, oc, cc);
                if (close != std::string::npos) {
                    BodyEvent ev = make_event(BodyEvent::Kind::kGuard, j);
                    ev.guard_type = w;
                    ev.guard_var = var;
                    for (const std::string& arg :
                         split_top_args(s.substr(k + 1, close - k - 1))) {
                        if (is_lock_tag(arg)) continue;
                        std::string name = mutex_arg_name(arg);
                        if (!name.empty()) {
                            ev.mutex_args.push_back(std::move(name));
                        }
                    }
                    if (!ev.mutex_args.empty()) def.events.push_back(ev);
                    j = close + 1;
                    continue;
                }
            }
            j = e;
            continue;
        }
        if (w == "new") {
            const std::string prev = prev_word(s, j);
            const std::size_t k = skip_ws(s, e);
            BodyEvent ev = make_event(BodyEvent::Kind::kAlloc, j);
            if (prev == "operator") {
                ev.what = "operator new";
                def.events.push_back(ev);
            } else if (k < s.size() && s[k] == '(') {
                // Placement new constructs into existing storage.
            } else {
                ev.what = "new";
                def.events.push_back(ev);
            }
            j = e;
            continue;
        }
        if (w == "make_unique" || w == "make_shared") {
            BodyEvent ev = make_event(BodyEvent::Kind::kAlloc, j);
            ev.what = "std::" + w;
            def.events.push_back(ev);
            j = e;
            continue;
        }
        if ((w == "vector" || w == "string") && j >= 2 && s[j - 1] == ':' &&
            s[j - 2] == ':') {
            const std::size_t k = skip_ws(s, e);
            if (w == "string" || (k < s.size() && s[k] == '<')) {
                BodyEvent ev = make_event(BodyEvent::Kind::kAlloc, j);
                ev.what = "std::" + w;
                def.events.push_back(ev);
            }
            j = e;
            continue;
        }
        if (w == "throw") {
            def.events.push_back(make_event(BodyEvent::Kind::kThrow, j));
            j = e;
            continue;
        }
        if (w == "unlock") {
            const MemberAccess access = read_access(s, j);
            if (access.accessed && !access.receiver.empty()) {
                BodyEvent ev = make_event(BodyEvent::Kind::kUnlock, j);
                ev.name = access.receiver;
                def.events.push_back(ev);
            }
            j = e;
            continue;
        }
        if (rejected_names().count(w) == 0) {
            const std::size_t k = skip_ws(s, e);
            if (k < s.size() && s[k] == '(') {
                const MemberAccess access = read_access(s, j);
                BodyEvent ev = make_event(BodyEvent::Kind::kCall, j);
                ev.name = w;
                ev.receiver = access.receiver;
                ev.qualifier = access.qualifier;
                def.events.push_back(ev);
            }
        }
        j = e;
    }
}

}  // namespace

FunctionIndex build_function_index(const Repo& repo) {
    FunctionIndex index;
    index.repo = &repo;

    // Header/source pair groups: same directory + stem.
    std::map<std::string, std::vector<std::size_t>> groups;
    for (std::size_t fi = 0; fi < repo.files.size(); ++fi) {
        if (repo.files[fi].top != "src") continue;
        const std::string& rel = repo.files[fi].rel;
        const std::size_t dot = rel.rfind('.');
        groups[rel.substr(0, dot)].push_back(fi);
    }
    for (const auto& [stem, members] : groups) {
        for (const std::size_t fi : members) index.file_group[fi] = members;
    }

    for (std::size_t fi = 0; fi < repo.files.size(); ++fi) {
        const SourceFile& file = repo.files[fi];
        if (file.top != "src") continue;
        const std::string& s = file.code;
        const std::vector<ClassRegion> regions = find_class_regions(s);
        for (const ClassRegion& region : regions) {
            index.classes.insert(region.name);
        }

        std::vector<FunctionDef> file_defs;
        for (std::size_t i = 0; i < s.size(); ++i) {
            if (!is_ident_start(s[i]) || (i > 0 && is_ident_char(s[i - 1]))) {
                continue;
            }
            const std::size_t e = word_end(s, i);
            const std::string w = s.substr(i, e - i);
            if (rejected_names().count(w) != 0 ||
                guard_types().count(w) != 0) {
                i = e - 1;
                continue;
            }
            const MemberAccess access = read_access(s, i);
            if (access.accessed) {
                i = e - 1;
                continue;  // member access, can't be a definition head
            }
            const std::size_t k = skip_ws(s, e);
            if (k >= s.size() || s[k] != '(') {
                i = e - 1;
                continue;
            }
            const std::size_t close = match_group(s, k, '(', ')');
            if (close == std::string::npos) {
                i = e - 1;
                continue;
            }
            const std::size_t body = find_body_brace(s, close + 1);
            if (body == std::string::npos) {
                i = e - 1;
                continue;
            }
            const std::size_t body_close = match_group(s, body, '{', '}');
            if (body_close == std::string::npos) {
                i = e - 1;
                continue;
            }
            FunctionDef def;
            def.name = w;
            std::size_t chain_begin = i;
            def.cls = read_qualifier(s, i, chain_begin);
            if (def.cls.empty()) {
                for (const ClassRegion& region : regions) {
                    if (i > region.begin && i < region.end) {
                        def.cls = region.name;  // innermost wins (last match)
                    }
                }
            }
            def.file = fi;
            def.head_offset = i;
            def.body_begin = body;
            def.body_end = body_close + 1;
            def.line = file.line_of(i);
            file_defs.push_back(std::move(def));
            i = e - 1;
        }

        for (FunctionDef& def : file_defs) {
            std::vector<std::pair<std::size_t, std::size_t>> nested;
            for (const FunctionDef& other : file_defs) {
                if (&other == &def) continue;
                if (other.head_offset > def.body_begin &&
                    other.body_end <= def.body_end) {
                    nested.emplace_back(other.head_offset, other.body_end);
                }
            }
            collect_body_events(s, def, nested);
            if (!def.cls.empty()) index.classes.insert(def.cls);
            index.by_name[def.name].push_back(index.defs.size());
            index.defs.push_back(std::move(def));
        }
    }
    return index;
}

namespace {

/// Classes that declare `recv` as a variable/member somewhere in the
/// caller's header/source pair — a cheap, CamelCase-gated type lookup.
std::set<std::string> receiver_classes(const FunctionIndex& index,
                                       const FunctionDef& caller,
                                       const std::string& recv) {
    std::set<std::string> out;
    const auto group_it = index.file_group.find(caller.file);
    if (group_it == index.file_group.end()) return out;
    for (const std::size_t fi : group_it->second) {
        const std::string& s = index.repo->files[fi].code;
        std::size_t pos = 0;
        while ((pos = s.find(recv, pos)) != std::string::npos) {
            const std::size_t occ = pos;
            pos += recv.size();
            if (occ > 0 && is_ident_char(s[occ - 1])) continue;
            if (pos < s.size() && is_ident_char(s[pos])) continue;
            if (occ == 0) continue;
            std::size_t p = rskip_ws(s, occ - 1);
            if (p == std::string::npos) continue;
            if (s[p] == '&' || s[p] == '*') {
                if (p == 0) continue;
                p = rskip_ws(s, p - 1);
                if (p == std::string::npos) continue;
            }
            if (s[p] == '>') {
                // `FlatSet<X>& recv` — rewind over the template args. A
                // smart-pointer wrapper forwards calls to its pointee, so
                // `unique_ptr<Transport> recv` harvests Transport; any
                // other template (a container) keeps only its own name.
                int depth = 0;
                const std::size_t args_end = p;
                while (p != static_cast<std::size_t>(-1)) {
                    if (s[p] == '>') ++depth;
                    if (s[p] == '<' && --depth == 0) break;
                    --p;
                }
                if (p == static_cast<std::size_t>(-1) || p == 0) continue;
                const std::size_t args_begin = p;
                p = rskip_ws(s, p - 1);
                if (p == std::string::npos || !is_ident_char(s[p])) continue;
                const std::size_t wb = word_begin(s, p);
                const std::string outer = s.substr(wb, p + 1 - wb);
                if (outer == "unique_ptr" || outer == "shared_ptr" ||
                    outer == "weak_ptr" || outer == "optional" ||
                    outer == "reference_wrapper") {
                    for (std::size_t a = args_begin + 1; a < args_end; ++a) {
                        if (!is_ident_char(s[a]) ||
                            (a > 0 && is_ident_char(s[a - 1]))) {
                            continue;
                        }
                        std::size_t ae = a;
                        while (ae < args_end && is_ident_char(s[ae])) ++ae;
                        const std::string arg = s.substr(a, ae - a);
                        if (!arg.empty() && is_upper(arg[0]) &&
                            index.classes.count(arg) != 0) {
                            out.insert(arg);
                        }
                        a = ae - 1;
                    }
                } else if (is_upper(outer[0]) &&
                           index.classes.count(outer) != 0) {
                    out.insert(outer);
                }
                continue;
            }
            if (!is_ident_char(s[p])) continue;
            const std::size_t wb = word_begin(s, p);
            const std::string type = s.substr(wb, p + 1 - wb);
            if (!type.empty() && is_upper(type[0]) &&
                index.classes.count(type) != 0) {
                out.insert(type);
            }
        }
    }
    return out;
}

}  // namespace

std::vector<std::size_t> FunctionIndex::resolve(const FunctionDef& caller,
                                                const BodyEvent& call) const {
    const auto it = by_name.find(call.name);
    if (it == by_name.end()) return {};
    const std::vector<std::size_t>& all = it->second;
    const auto with_cls = [&](const std::string& cls) {
        std::vector<std::size_t> out;
        for (const std::size_t d : all) {
            if (defs[d].cls == cls) out.push_back(d);
        }
        return out;
    };
    if (!call.qualifier.empty()) {
        if (classes.count(call.qualifier) != 0) {
            return with_cls(call.qualifier);
        }
        // Namespace qualifier (`support::foo`, `std::move`): free
        // functions of that name, possibly none.
        return with_cls("");
    }
    if (call.receiver == "this") return with_cls(caller.cls);
    if (!call.receiver.empty()) {
        const std::set<std::string> types =
            receiver_classes(*this, caller, call.receiver);
        if (types.empty()) {
            // Unknown receiver type: almost always a std container or an
            // `auto` local whose declaration the cheap lookup cannot see.
            // Dropping the edge keeps the passes free of false positives;
            // the cost (a missed edge) is documented in DESIGN.md §15.
            return {};
        }
        std::vector<std::size_t> v;
        for (const std::string& type : types) {
            for (const std::size_t d : with_cls(type)) v.push_back(d);
        }
        if (!v.empty()) return v;
        // A known repo class without a matching definition: a virtual
        // interface call (`Transport::unicast`). Dispatch could land on
        // any override, so take every definition of the name.
        return all;
    }
    // Unqualified: the caller's own members plus free functions (ADL).
    std::vector<std::size_t> v = with_cls(caller.cls);
    if (!caller.cls.empty()) {
        for (const std::size_t d : with_cls("")) v.push_back(d);
    }
    return v;
}

}  // namespace sariadne::analyze
