/**
 * @file
 * The lint3d pass-1 (per-file) rule passes and summary collectors.
 * Each rule is a focused scan over the token stream; a shared
 * pre-pass computes, per token, the innermost brace scope
 * (namespace / class / function / initializer) and the paren nesting
 * depth, which is all the "parsing" the rules need. Alongside the
 * findings, pass 1 collects the whole-program summary (include
 * edges, atomic names and call sites, wire-schema key sets, counter
 * registrations) that program.cc's cross-file rules consume.
 *
 * Heuristics are deliberately conservative about what they claim:
 * every rule documents its blind spots in DESIGN.md. When a rule and
 * reality disagree, the per-line `// lint3d: <rule>-ok` suppression
 * records the decision in the source.
 */

#include "lint3d.hh"

#include <algorithm>

namespace lint3d {

namespace {

/** Innermost brace-scope classification. */
enum class Scope { TU, Namespace, Class, Enum, Function, Block, Init };

/** Per-token scope / paren-depth context. */
struct Context
{
    std::vector<Scope> scope;
    std::vector<int> paren;
};

bool
isScopeOpenerKeyword(const std::string &s)
{
    return s == "namespace" || s == "class" || s == "struct" ||
           s == "union" || s == "enum";
}

/**
 * Classify every token's innermost scope with a brace stack. The
 * opener of a brace is inferred from the tokens before it: `)` /
 * `const` / `noexcept` / `override` open function bodies, a
 * backward scan to the statement start finds `namespace` / `class` /
 * `enum`, and everything else (after `=`, `,`, `return`, an
 * identifier) is a braced initializer.
 */
Context
buildContext(const std::vector<Token> &t)
{
    Context ctx;
    ctx.scope.resize(t.size(), Scope::TU);
    ctx.paren.resize(t.size(), 0);
    std::vector<Scope> stack{Scope::TU};
    int paren = 0;

    for (std::size_t i = 0; i < t.size(); ++i) {
        ctx.scope[i] = stack.back();
        ctx.paren[i] = paren;
        const std::string &s = t[i].text;

        if (s == "(" || s == "[") {
            ++paren;
            continue;
        }
        if (s == ")" || s == "]") {
            if (paren > 0)
                --paren;
            continue;
        }
        if (s == "}") {
            if (stack.size() > 1)
                stack.pop_back();
            continue;
        }
        if (s != "{")
            continue;

        if (paren > 0) {
            stack.push_back(Scope::Init);
            continue;
        }
        if (i == 0) {
            stack.push_back(Scope::Block);
            continue;
        }
        const std::string &p = t[i - 1].text;
        if (p == ")" || p == "const" || p == "noexcept" ||
            p == "override" || p == "final" || p == "else" ||
            p == "do" || p == "try") {
            bool inside_fn = stack.back() == Scope::Function ||
                             stack.back() == Scope::Block;
            stack.push_back(inside_fn ? Scope::Block
                                      : Scope::Function);
            continue;
        }
        // Backward scan to the statement start for a scope keyword.
        Scope opened = Scope::Init;
        bool classified = false;
        for (std::size_t back = 1;
             back <= i && back <= 64; ++back) {
            const std::string &q = t[i - back].text;
            if (q == ";" || q == "{" || q == "}" || q == ")" ||
                q == "(" || q == ",")
                break;
            if (q == "enum") {
                opened = Scope::Enum;
                classified = true;
                break;
            }
            if (isScopeOpenerKeyword(q)) {
                opened = q == "namespace" ? Scope::Namespace
                                          : Scope::Class;
                classified = true;
                break;
            }
        }
        if (!classified &&
            !(t[i - 1].kind == TokKind::Ident || p == "=" ||
              p == "," || p == "(" || p == "[" || p == "return")) {
            opened = Scope::Block;
        }
        stack.push_back(opened);
    }
    return ctx;
}

/** True when @p path (relative, '/') starts with any listed prefix. */
bool
underAny(const std::string &path,
         const std::vector<std::string> &prefixes)
{
    for (const std::string &p : prefixes) {
        if (p.empty())
            continue;
        if (path.compare(0, p.size(), p) == 0)
            return true;
    }
    return false;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

/** Everything one rule pass needs, plus the finding sink. */
struct Analysis
{
    const std::string &path;
    const std::vector<Token> &t;
    const Config &cfg;
    Context ctx;
    bool header = false;
    FileReport &report;

    const std::string &
    text(std::size_t i) const
    {
        static const std::string empty;
        return i < t.size() ? t[i].text : empty;
    }

    /**
     * Report a finding unless the rule is off / path-exempt /
     * suppressed. @return true when the finding was recorded (so
     * callers only attach --fix edits to live findings).
     */
    bool
    emit(int line, const std::string &rule, const std::string &msg)
    {
        const RuleConfig &rc = cfg.ruleConfig(rule);
        if (rc.severity == "off")
            return false;
        if (underAny(path, rc.allow))
            return false;
        if (!rc.paths.empty() && !underAny(path, rc.paths))
            return false;
        auto it = report.supp.find(line);
        if (it != report.supp.end() && it->second.count(rule)) {
            ++report.suppressed;
            report.supp_used.insert({line, rule});
            return false;
        }
        report.findings.push_back(
            {path, line, rule, rc.severity, msg});
        return true;
    }
};

bool
isFloatLiteral(const Token &tok)
{
    if (tok.kind != TokKind::Number)
        return false;
    const std::string &s = tok.text;
    if (s.size() > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X'))
        return false;
    for (char c : s) {
        if (c == '.' || c == 'e' || c == 'E')
            return true;
    }
    return false;
}

// --- determinism rules -------------------------------------------------

void
detRand(Analysis &a)
{
    for (std::size_t i = 0; i < a.t.size(); ++i) {
        const std::string &s = a.t[i].text;
        if (a.t[i].kind != TokKind::Ident ||
            (s != "rand" && s != "srand"))
            continue;
        if (a.text(i + 1) != "(")
            continue;
        const std::string &prev = i > 0 ? a.text(i - 1) : a.text(i);
        if (prev == "." || prev == "->")
            continue; // a member function of some project type
        if (i > 0 && a.t[i - 1].kind == TokKind::Ident &&
            prev != "return" && prev != "case")
            continue; // `int rand(` — declaring a member, not calling
        a.emit(a.t[i].line, "det-rand",
               "'" + s + "' draws from hidden global state; derive "
               "a stream from core::deriveCellSeed instead");
    }
}

void
detWallclock(Analysis &a)
{
    for (std::size_t i = 0; i < a.t.size(); ++i) {
        if (a.t[i].kind != TokKind::Ident)
            continue;
        const std::string &s = a.t[i].text;
        const std::string prev = i > 0 ? a.text(i - 1) : "";
        bool member = prev == "." || prev == "->";
        bool declared = i > 0 && a.t[i - 1].kind == TokKind::Ident &&
                        prev != "return" && prev != "case";
        if ((s == "time" || s == "clock") && a.text(i + 1) == "(" &&
            !member && !declared) {
            a.emit(a.t[i].line, "det-wallclock",
                   "wall-clock call '" + s + "(...)' makes runs "
                   "unreproducible; seeds must come from RunOptions");
            continue;
        }
        if (s == "system_clock" || s == "random_device") {
            a.emit(a.t[i].line, "det-wallclock",
                   "'" + s + "' is a nondeterministic source; use "
                   "steady_clock for intervals and RunOptions seeds "
                   "for randomness");
        }
    }
}

void
detUnordered(Analysis &a)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < a.t.size(); ++i) {
        const std::string &s = a.t[i].text;
        if (s != "unordered_map" && s != "unordered_set" &&
            s != "unordered_multimap" && s != "unordered_multiset")
            continue;
        a.emit(a.t[i].line, "det-unordered-container",
               "std::" + s + " iterates in hash order, which varies "
               "across libraries and runs; use std::map/std::set or "
               "a sorted vector in result-affecting code");
        // Find the declared variable name: balance the template
        // argument list, then take the following identifier.
        std::size_t j = i + 1;
        if (a.text(j) != "<")
            continue;
        int depth = 0;
        for (; j < a.t.size(); ++j) {
            const std::string &q = a.t[j].text;
            if (q == "<")
                ++depth;
            else if (q == ">")
                --depth;
            else if (q == ">>")
                depth -= 2;
            if (depth <= 0)
                break;
        }
        ++j;
        while (a.text(j) == "*" || a.text(j) == "&")
            ++j;
        if (j < a.t.size() && a.t[j].kind == TokKind::Ident)
            names.insert(a.t[j].text);
    }
    if (names.empty())
        return;

    for (std::size_t i = 0; i < a.t.size(); ++i) {
        // Range-for whose range expression names an unordered
        // container declared in this file.
        if (a.t[i].text == "for" && a.text(i + 1) == "(") {
            int depth = 0;
            bool seen_colon = false;
            for (std::size_t j = i + 1; j < a.t.size(); ++j) {
                const std::string &q = a.t[j].text;
                if (q == "(") {
                    ++depth;
                } else if (q == ")") {
                    if (--depth == 0)
                        break;
                } else if (q == ":" && depth == 1) {
                    seen_colon = true;
                } else if (seen_colon &&
                           a.t[j].kind == TokKind::Ident &&
                           names.count(q)) {
                    a.emit(a.t[j].line, "det-unordered-iter",
                           "iterating unordered container '" + q +
                           "'; order is nondeterministic — sort "
                           "keys first or use an ordered container");
                    break;
                }
            }
        }
        // Explicit iterator loops: name.begin() / cbegin() / rbegin().
        if (a.t[i].kind == TokKind::Ident && names.count(a.t[i].text) &&
            a.text(i + 1) == "." &&
            (a.text(i + 2) == "begin" || a.text(i + 2) == "cbegin" ||
             a.text(i + 2) == "rbegin")) {
            a.emit(a.t[i].line, "det-unordered-iter",
                   "iterator over unordered container '" +
                   a.t[i].text + "'; order is nondeterministic — "
                   "sort keys first or use an ordered container");
        }
    }
}

void
detFloatReduce(Analysis &a)
{
    for (std::size_t i = 1; i < a.t.size(); ++i) {
        const std::string &s = a.t[i].text;
        if ((s == "reduce" || s == "transform_reduce") &&
            a.text(i - 1) == "::" && a.text(i + 1) == "(") {
            a.emit(a.t[i].line, "det-float-reduce",
                   "std::" + s + " sums in unspecified order; "
                   "float results vary — add fixed partials in "
                   "an index-ordered loop");
        }
    }
}

// --- safety rules ------------------------------------------------------

void
safeNakedNew(Analysis &a)
{
    for (std::size_t i = 0; i < a.t.size(); ++i) {
        const std::string &s = a.t[i].text;
        if (a.t[i].kind != TokKind::Ident ||
            (s != "new" && s != "delete"))
            continue;
        const std::string prev = i > 0 ? a.text(i - 1) : "";
        if (prev == "operator")
            continue;
        if (s == "delete" && prev == "=")
            continue; // deleted special member, not a deallocation
        a.emit(a.t[i].line, "safe-naked-new",
               std::string("naked '") + s + "'; prefer "
               "std::make_unique / containers, or suppress where "
               "manual lifetime is the design (lock-free chunks)");
    }
}

void
safeMemcpy(Analysis &a)
{
    for (std::size_t i = 0; i < a.t.size(); ++i) {
        const std::string &s = a.t[i].text;
        if (a.t[i].kind != TokKind::Ident ||
            (s != "memcpy" && s != "memmove"))
            continue;
        if (a.text(i + 1) != "(")
            continue;
        const std::string prev = i > 0 ? a.text(i - 1) : "";
        if (prev == "." || prev == "->")
            continue;
        if (i > 0 && a.t[i - 1].kind == TokKind::Ident &&
            prev != "return" && prev != "case")
            continue; // `void memcpy(` — a declaration, not a call
        a.emit(a.t[i].line, "safe-memcpy",
               "'" + s + "' bypasses constructors; prove the type "
               "is trivially copyable (static_assert) or use "
               "std::copy");
    }
}

void
safeFloatEq(Analysis &a)
{
    for (std::size_t i = 0; i < a.t.size(); ++i) {
        const std::string &s = a.t[i].text;
        if (s != "==" && s != "!=")
            continue;
        bool floaty = (i > 0 && isFloatLiteral(a.t[i - 1])) ||
                      (i + 1 < a.t.size() &&
                       isFloatLiteral(a.t[i + 1]));
        if (!floaty)
            continue;
        a.emit(a.t[i].line, "safe-float-eq",
               "exact floating-point comparison; use a tolerance, "
               "or suppress where bitwise equality is the contract");
    }
}

const std::set<std::string> &
builtinTypeWords()
{
    static const std::set<std::string> kTypes{
        "bool",     "char",     "short",    "int",      "long",
        "unsigned", "signed",   "float",    "double",   "size_t",
        "ssize_t",  "ptrdiff_t", "int8_t",  "int16_t",  "int32_t",
        "int64_t",  "uint8_t",  "uint16_t", "uint32_t", "uint64_t",
        "intptr_t", "uintptr_t"};
    return kTypes;
}

void
safeCCast(Analysis &a)
{
    const std::set<std::string> &types = builtinTypeWords();
    for (std::size_t i = 1; i + 2 < a.t.size(); ++i) {
        if (a.t[i].text != "(")
            continue;
        const Token &p = a.t[i - 1];
        // After an identifier or closing bracket this paren is a
        // call / declarator, not a cast — except after statement
        // keywords like `return`.
        if ((p.kind == TokKind::Ident && p.text != "return" &&
             p.text != "case") ||
            p.text == ")" || p.text == "]" || p.text == ">")
            continue;
        std::size_t j = i + 1;
        bool saw_type = false;
        while (j < a.t.size()) {
            const std::string &q = a.t[j].text;
            if (types.count(q)) {
                saw_type = true;
                ++j;
            } else if (q == "const" || q == "std" || q == "::") {
                ++j;
            } else {
                break;
            }
        }
        while (j < a.t.size() &&
               (a.t[j].text == "*" || a.t[j].text == "&"))
            ++j;
        if (!saw_type || j >= a.t.size() || a.t[j].text != ")")
            continue;
        if (j + 1 >= a.t.size())
            continue;
        const Token &next = a.t[j + 1];
        bool operand = next.kind == TokKind::Ident ||
                       next.kind == TokKind::Number ||
                       next.kind == TokKind::String ||
                       next.text == "(";
        if (!operand || types.count(next.text))
            continue;
        if (!a.emit(a.t[i].line, "safe-c-cast",
                    "C-style cast; use static_cast (or the T(x) "
                    "functional form) so conversions stay searchable "
                    "and checked"))
            continue;

        // --fix: mechanical when the operand is a lone identifier /
        // number (wrap it) or already parenthesized (reuse the
        // parens). Anything longer is left for a human.
        std::string type_text;
        for (std::size_t k = i + 1; k < j; ++k) {
            const std::string &q = a.t[k].text;
            if (!type_text.empty() && q != "::" && q != "*" &&
                q != "&" &&
                type_text.compare(type_text.size() - 2, 2, "::") != 0)
                type_text += ' ';
            type_text += q;
        }
        std::size_t cast_begin = a.t[i].off;
        std::size_t cast_len = a.t[j].off + 1 - cast_begin;
        if (next.text == "(") {
            a.report.fixes.push_back(
                {a.path, cast_begin, cast_len,
                 "static_cast<" + type_text + ">", "safe-c-cast"});
        } else if ((next.kind == TokKind::Ident ||
                    next.kind == TokKind::Number) &&
                   j + 2 < a.t.size()) {
            const std::string &after = a.t[j + 2].text;
            bool lone = after != "(" && after != "[" &&
                        after != "." && after != "->" &&
                        after != "::";
            if (lone) {
                a.report.fixes.push_back(
                    {a.path, cast_begin, cast_len,
                     "static_cast<" + type_text + ">(",
                     "safe-c-cast"});
                a.report.fixes.push_back(
                    {a.path, next.off + next.text.size(), 0, ")",
                     "safe-c-cast"});
            }
        }
    }
}

void
safeNodiscard(Analysis &a)
{
    if (!a.header)
        return;
    for (std::size_t i = 1; i < a.t.size(); ++i) {
        if (a.t[i].kind != TokKind::Ident || a.text(i + 1) != "(")
            continue;
        Scope sc = a.ctx.scope[i];
        if (sc != Scope::Class && sc != Scope::Namespace &&
            sc != Scope::TU)
            continue;
        if (a.ctx.paren[i] != 0)
            continue;
        const std::string &name = a.t[i].text;
        bool matches = false;
        for (const std::string &prefix : a.cfg.nodiscard_prefixes) {
            if (name.size() >= prefix.size() &&
                name.compare(0, prefix.size(), prefix) == 0) {
                matches = true;
                break;
            }
        }
        if (!matches)
            continue;
        const std::string &prev = a.text(i - 1);
        if (prev == "." || prev == "->" || prev == "operator")
            continue;
        // Scan back over the declaration for [[nodiscard]] / void.
        bool has_nodiscard = false;
        bool returns_void = false;
        std::size_t decl_tokens = 0;
        for (std::size_t back = 1; back <= i && back <= 48; ++back) {
            const std::string &q = a.t[i - back].text;
            if (q == ";" || q == "{" || q == "}" || q == ":")
                break;
            ++decl_tokens;
            if (q == "nodiscard")
                has_nodiscard = true;
            if (q == "void" && a.text(i - back + 1) != "*")
                returns_void = true;
        }
        if (decl_tokens == 0 || returns_void || has_nodiscard)
            continue;
        a.emit(a.t[i].line, "safe-nodiscard",
               "'" + name + "' returns a status/result that call "
               "sites silently dropped before; mark it "
               "[[nodiscard]]");
    }
}

// --- concurrency rules -------------------------------------------------

/** Words whose presence makes a namespace-scope declaration safe. */
bool
globalStatementIsSafe(const std::vector<Token> &t, std::size_t begin,
                      std::size_t end)
{
    static const std::set<std::string> kSafe{
        "const",     "constexpr", "constinit",  "atomic",
        "mutex",     "shared_mutex", "once_flag", "thread_local",
        "extern",    "using",     "typedef",    "static_assert",
        "friend",    "operator",  "template",   "class",
        "struct",    "enum",      "union",      "namespace",
        "inline",    "noexcept",  "asm"};
    std::size_t first_eq = end;
    for (std::size_t i = begin; i < end; ++i) {
        if (t[i].text == "=") {
            first_eq = i;
            break;
        }
    }
    for (std::size_t i = begin; i < end; ++i) {
        if (kSafe.count(t[i].text))
            return true;
        // A paren before any '=' means a function declaration.
        if (t[i].text == "(" && i < first_eq)
            return true;
    }
    return false;
}

/** Does [begin, end) declare a lock (the adjacency convention)? */
bool
statementDeclaresLock(const std::vector<Token> &t, std::size_t begin,
                      std::size_t end)
{
    for (std::size_t i = begin; i < end; ++i) {
        const std::string &s = t[i].text;
        if (s == "mutex" || s == "shared_mutex" || s == "once_flag")
            return true;
    }
    return false;
}

void
concGlobalMutable(Analysis &a)
{
    std::size_t stmt_begin = 0;
    /** The immediately preceding namespace-scope statement declared
     *  a mutex: by project convention it guards what follows. */
    bool prev_was_lock = false;
    for (std::size_t i = 0; i < a.t.size(); ++i) {
        Scope sc = a.ctx.scope[i];
        const std::string &s = a.t[i].text;
        if (s == "{") {
            // A brace that opens a scope resets the statement; a
            // braced initializer does not (the declaration
            // continues to the ';' after it).
            Scope opened = i + 1 < a.t.size() ? a.ctx.scope[i + 1]
                                              : Scope::Init;
            if (opened != Scope::Init)
                stmt_begin = i + 1;
            continue;
        }
        if (s == "}") {
            // Closing anything but a braced initializer (a function
            // body, class, enum, namespace) starts a new statement.
            if (sc != Scope::Init)
                stmt_begin = i + 1;
            continue;
        }
        bool at_ns = (sc == Scope::Namespace || sc == Scope::TU) &&
                     a.ctx.paren[i] == 0;
        if (!at_ns || s != ";")
            continue;

        std::size_t begin = stmt_begin;
        stmt_begin = i + 1;
        bool guarded = prev_was_lock;
        prev_was_lock = statementDeclaresLock(a.t, begin, i);
        if (i <= begin + 1)
            continue; // too short to declare anything mutable
        if (guarded || globalStatementIsSafe(a.t, begin, i))
            continue;
        // The declared name: the identifier before '=', '{', '['
        // or the terminating ';'.
        std::size_t name_at = a.t.size();
        for (std::size_t j = begin; j < i; ++j) {
            const std::string &q = a.t[j].text;
            if (q == "=" || q == "{" || q == "[")
                break;
            if (a.t[j].kind == TokKind::Ident)
                name_at = j;
        }
        if (name_at >= a.t.size())
            continue;
        a.emit(a.t[name_at].line, "conc-global-mutable",
               "mutable namespace-scope global '" +
               a.t[name_at].text + "'; make it std::atomic, guard "
               "it with a mutex, or make it constexpr");
    }
}

void
concStaticLocal(Analysis &a)
{
    if (!a.header)
        return;
    for (std::size_t i = 0; i < a.t.size(); ++i) {
        if (a.t[i].text != "static")
            continue;
        Scope sc = a.ctx.scope[i];
        if (sc != Scope::Function && sc != Scope::Block)
            continue;
        const std::string &next = a.text(i + 1);
        if (next == "const" || next == "constexpr" ||
            next == "constinit")
            continue;
        a.emit(a.t[i].line, "conc-static-local",
               "mutable function-local static in a header: one "
               "shared instance across every TU and thread; hoist "
               "it into a .cc or make it constexpr");
    }
}

void
concThreadOutsideExec(Analysis &a)
{
    for (std::size_t i = 2; i < a.t.size(); ++i) {
        const std::string &s = a.t[i].text;
        if ((s != "thread" && s != "jthread") ||
            a.text(i - 1) != "::" || a.text(i - 2) != "std")
            continue;
        if (a.text(i + 1) == "::")
            continue; // std::thread::id / hardware_concurrency
        a.emit(a.t[i].line, "conc-thread-outside-exec",
               "raw std::" + s + " outside exec::; use "
               "exec::ThreadPool so join/detach discipline and "
               "worker detection stay centralized");
    }
}

// --- observability rules (per-file half) -------------------------------

/** Counter-name charset: lowercase dotted metric namespace. */
bool
validCounterName(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_' || c == '.' || c == '*';
        if (!ok)
            return false;
    }
    return true;
}

/**
 * obs-counter-name, per-file half: every string literal passed as
 * the name of a counter/histogram instrument must match
 * `[a-z0-9_.*]+` (the Prometheus-safe project namespace).
 * Registration sites are also summarized for pass 2's registered-
 * once check.
 */
void
obsCounterName(Analysis &a)
{
    static const std::set<std::string> kNameMethods{
        "set", "add", "setSeries", "registerHistogram", "tagGauge"};
    for (std::size_t i = 2; i + 2 < a.t.size(); ++i) {
        if (a.t[i].kind != TokKind::Ident ||
            !kNameMethods.count(a.t[i].text))
            continue;
        const std::string &prev = a.text(i - 1);
        if (prev != "." && prev != "->")
            continue;
        if (a.text(i + 1) != "(" ||
            a.t[i + 2].kind != TokKind::String)
            continue;
        const std::string &name = a.t[i + 2].str;
        if (a.t[i].text == "registerHistogram")
            a.report.counter_regs.push_back({name, a.t[i + 2].line});
        if (!validCounterName(name)) {
            a.emit(a.t[i + 2].line, "obs-counter-name",
                   "metric name \"" + name + "\" does not match "
                   "[a-z0-9_.*]+; counter/histogram names are "
                   "lowercase dotted identifiers");
        }
    }
}

// --- hygiene rules -----------------------------------------------------

/** Expected include-guard macro for @p path (src/ prefix dropped). */
std::string
expectedGuard(const std::string &path)
{
    std::string tail = startsWith(path, "src/") ? path.substr(4)
                                                : path;
    std::string guard = "STACK3D_";
    for (char c : tail) {
        if (c >= 'a' && c <= 'z')
            guard += char(c - 'a' + 'A');
        else if ((c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9'))
            guard += c;
        else
            guard += '_';
    }
    return guard;
}

/**
 * hyg-header-guard: every header opens with
 * `#ifndef STACK3D_<PATH>` / `#define` of the same macro and closes
 * with `#endif`. One derived spelling per path keeps guards
 * collision-free and greppable.
 */
void
hygHeaderGuard(Analysis &a, const std::vector<PpDirective> &pp)
{
    if (!a.header)
        return;
    std::string expected = expectedGuard(a.path);
    if (pp.empty()) {
        a.emit(1, "hyg-header-guard",
               "header has no include guard; expected '#ifndef " +
               expected + "'");
        return;
    }
    const PpDirective &first = pp.front();
    if (startsWith(first.text, "pragma once")) {
        a.emit(first.line, "hyg-header-guard",
               "'#pragma once' breaks the one-guard-style rule; use "
               "'#ifndef " + expected + "'");
        return;
    }
    if (first.text != "ifndef " + expected) {
        a.emit(first.line, "hyg-header-guard",
               "include guard must be '#ifndef " + expected +
               "' (saw '#" + first.text + "')");
        return;
    }
    if (pp.size() < 2 || pp[1].text != "define " + expected) {
        a.emit(first.line, "hyg-header-guard",
               "'#ifndef " + expected + "' must be followed by "
               "'#define " + expected + "'");
        return;
    }
    if (!startsWith(pp.back().text, "endif")) {
        a.emit(pp.back().line, "hyg-header-guard",
               "header's last directive must be the guard's "
               "'#endif'");
    }
}

// --- whole-program summary collectors ----------------------------------

/** Include edges from the captured preprocessor directives. */
void
collectIncludes(Analysis &a, const std::vector<PpDirective> &pp)
{
    for (const PpDirective &d : pp) {
        if (!startsWith(d.text, "include"))
            continue;
        std::size_t q1 = d.text.find('"');
        if (q1 == std::string::npos)
            continue; // <system> include: outside the layer DAG
        std::size_t q2 = d.text.find('"', q1 + 1);
        if (q2 == std::string::npos)
            continue;
        a.report.includes.push_back(
            {d.text.substr(q1 + 1, q2 - q1 - 1), d.line});
    }
}

/**
 * Names declared as std::atomic in this file, and every member call
 * that looks like an atomic access. Pass 2 joins the two across the
 * whole program (atomics declared in headers, used in .cc files).
 */
void
collectAtomics(Analysis &a)
{
    for (std::size_t i = 0; i < a.t.size(); ++i) {
        if (a.t[i].kind != TokKind::Ident ||
            a.t[i].text != "atomic" || a.text(i + 1) != "<")
            continue;
        std::size_t j = i + 1;
        int depth = 0;
        for (; j < a.t.size(); ++j) {
            const std::string &q = a.t[j].text;
            if (q == "<")
                ++depth;
            else if (q == ">")
                --depth;
            else if (q == ">>")
                depth -= 2;
            if (depth <= 0)
                break;
        }
        ++j;
        while (a.text(j) == "*" || a.text(j) == "&")
            ++j;
        if (j < a.t.size() && a.t[j].kind == TokKind::Ident)
            a.report.atomic_names.insert(a.t[j].text);
    }

    static const std::set<std::string> kOrderMethods{
        "load", "store", "exchange", "fetch_add", "fetch_sub",
        "fetch_and", "fetch_or", "fetch_xor",
        "compare_exchange_weak", "compare_exchange_strong"};
    for (std::size_t i = 1; i + 1 < a.t.size(); ++i) {
        if (a.t[i].kind != TokKind::Ident ||
            !kOrderMethods.count(a.t[i].text))
            continue;
        const std::string &prev = a.text(i - 1);
        if (prev != "." && prev != "->")
            continue;
        if (a.text(i + 1) != "(")
            continue;
        AtomicSite site;
        site.method = a.t[i].text;
        site.line = a.t[i].line;
        if (i >= 2 && a.t[i - 2].kind == TokKind::Ident)
            site.object = a.t[i - 2].text;
        site.empty_args = a.text(i + 2) == ")";
        int depth = 0;
        for (std::size_t j = i + 1; j < a.t.size(); ++j) {
            const std::string &q = a.t[j].text;
            if (q == "(") {
                ++depth;
            } else if (q == ")") {
                if (--depth == 0) {
                    site.close_off = a.t[j].off;
                    break;
                }
            } else if (a.t[j].kind == TokKind::Ident &&
                       startsWith(q, "memory_order")) {
                site.has_order = true;
            }
        }
        if (site.close_off != 0)
            a.report.atomic_sites.push_back(site);
    }
}

/**
 * Wire-schema functions: namespace-scope definitions named
 * `write*Json`, `parse*`, or `*[Dd]igest*`, with the JSON keys they
 * emit (w.key("...")) or consume (read*("...")) and the identifiers
 * in their bodies (for digest-membership checks).
 */
void
collectSchemaFns(Analysis &a)
{
    for (std::size_t i = 0; i + 1 < a.t.size(); ++i) {
        if (a.t[i].kind != TokKind::Ident || a.text(i + 1) != "(")
            continue;
        Scope sc = a.ctx.scope[i];
        if (sc != Scope::TU && sc != Scope::Namespace)
            continue;
        if (a.ctx.paren[i] != 0)
            continue;
        const std::string &name = a.t[i].text;
        bool writer = startsWith(name, "write") &&
                      endsWith(name, "Json") && name.size() > 9;
        bool reader = startsWith(name, "parse") && name.size() > 5;
        bool digest = name.find("Digest") != std::string::npos ||
                      name.find("digest") != std::string::npos;
        if (!writer && !reader && !digest)
            continue;
        const std::string &prev = i > 0 ? a.text(i - 1) : "";
        if (prev == "." || prev == "->" || prev == "::")
            continue; // qualified call, not a definition
        // Find the parameter list's ')' ...
        std::size_t j = i + 1;
        int depth = 0;
        for (; j < a.t.size(); ++j) {
            const std::string &q = a.t[j].text;
            if (q == "(")
                ++depth;
            else if (q == ")" && --depth == 0)
                break;
        }
        // ... then the body '{' (a ';' first means a declaration).
        std::size_t body = j + 1;
        while (body < a.t.size() && a.text(body) != "{" &&
               a.text(body) != ";" && a.text(body) != "=")
            ++body;
        if (body >= a.t.size() || a.text(body) != "{")
            continue;
        SchemaFn fn;
        fn.name = name;
        fn.line = a.t[i].line;
        int braces = 0;
        std::size_t k = body;
        for (; k < a.t.size(); ++k) {
            const std::string &q = a.t[k].text;
            if (q == "{")
                ++braces;
            else if (q == "}" && --braces == 0)
                break;
            if (a.t[k].kind == TokKind::Ident) {
                fn.idents.insert(q);
                bool key_call =
                    (q == "key" || startsWith(q, "read")) &&
                    a.text(k + 1) == "(" && k + 2 < a.t.size() &&
                    a.t[k + 2].kind == TokKind::String;
                if (key_call)
                    fn.keys.push_back(
                        {a.t[k + 2].str, a.t[k + 2].line});
            }
        }
        if (!fn.keys.empty() || digest)
            a.report.schema_fns.push_back(fn);
        i = k;
    }
}

} // namespace

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> kCatalog{
        {"det-rand", "determinism", false, false,
         "`rand`/`srand`: hidden global RNG state; use "
         "`core::deriveCellSeed`"},
        {"det-wallclock", "determinism", false, false,
         "`time()`/`clock()`/`system_clock`/`random_device` as "
         "entropy or seeds"},
        {"det-unordered-container", "determinism", false, false,
         "`std::unordered_*` in result-affecting code (hash order "
         "leaks)"},
        {"det-unordered-iter", "determinism", false, false,
         "iterating an unordered container declared in the same "
         "file"},
        {"det-float-reduce", "determinism", false, false,
         "`std::reduce`/`transform_reduce`: unspecified summation "
         "order"},
        {"safe-naked-new", "safety", false, false,
         "naked `new`/`delete` outside designed manual-lifetime "
         "code"},
        {"safe-memcpy", "safety", false, false,
         "`memcpy`/`memmove` without a trivially-copyable proof"},
        {"safe-float-eq", "safety", false, false,
         "exact `==`/`!=` against a floating-point literal"},
        {"safe-c-cast", "safety", false, true,
         "C-style casts (config scopes this to `src/`)"},
        {"safe-nodiscard", "safety", false, false,
         "status-returning `parse*`/`try*`/`consume*`/`validate*` "
         "APIs without `[[nodiscard]]`"},
        {"conc-global-mutable", "concurrency", false, false,
         "mutable namespace-scope globals with no atomic/mutex "
         "adjacency"},
        {"conc-static-local", "concurrency", false, false,
         "mutable function-local statics in headers"},
        {"conc-thread-outside-exec", "concurrency", false, false,
         "raw `std::thread` outside `exec::` (and the standalone "
         "lint3d tool)"},
        {"conc-atomic-order", "concurrency", true, true,
         "atomic `load`/`store`/`fetch_*`/`compare_exchange_*` "
         "without an explicit `std::memory_order`"},
        {"arch-layering", "architecture", true, false,
         "`#include` edge that violates the declared layer DAG "
         "(`[layer.*]` in `.lint3d.toml`)"},
        {"wire-schema-parity", "wire", true, false,
         "JSON key emitted by `write*Json` but not parsed by the "
         "paired `parse*` (or vice versa)"},
        {"wire-digest-parity", "wire", true, false,
         "wire key absent from the request digest without a named "
         "`exclude_keys` entry"},
        {"obs-counter-name", "observability", true, false,
         "metric name outside `[a-z0-9_.*]+`, or a histogram "
         "registered under the same name twice"},
        {"hyg-header-guard", "hygiene", false, false,
         "header guard that is not the derived "
         "`STACK3D_<PATH>_HH` spelling"},
        {"lint-stale-suppression", "lint", true, false,
         "a `// lint3d: <rule>-ok` marker that suppresses nothing "
         "(or names an unknown rule)"},
    };
    return kCatalog;
}

const std::vector<std::string> &
allRules()
{
    static const std::vector<std::string> kRules = [] {
        std::vector<std::string> rules;
        for (const RuleInfo &info : ruleCatalog())
            rules.push_back(info.name);
        return rules;
    }();
    return kRules;
}

FileReport
analyzeFile(const std::string &path, const LexOutput &lexed,
            const Config &cfg)
{
    FileReport report;
    report.path = path;
    report.supp = lexed.supp;
    report.supp_decls = lexed.supp_decls;

    Analysis a{path, lexed.toks, cfg, buildContext(lexed.toks), false,
               report};
    a.header = endsWith(path, ".hh") || endsWith(path, ".hpp") ||
               endsWith(path, ".h");

    detRand(a);
    detWallclock(a);
    detUnordered(a);
    detFloatReduce(a);
    safeNakedNew(a);
    safeMemcpy(a);
    safeFloatEq(a);
    safeCCast(a);
    safeNodiscard(a);
    concGlobalMutable(a);
    concStaticLocal(a);
    concThreadOutsideExec(a);
    obsCounterName(a);
    hygHeaderGuard(a, lexed.pp);

    collectIncludes(a, lexed.pp);
    collectAtomics(a);
    collectSchemaFns(a);

    std::sort(report.findings.begin(), report.findings.end());
    return report;
}

} // namespace lint3d
