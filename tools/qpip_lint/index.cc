/**
 * @file
 * Pass 1 of the project-wide lint: one walk over every lexed file
 * builds the shared index the cross-file rule families (S1, W2) run
 * against — stat registration/lookup sites with their literal
 * fragments, tag-function return literals, and serialize/parse field
 * sequences. Everything here works on the code view (comments gone,
 * string bodies blanked to "") with the literal bodies re-attached by
 * offset, so call shapes parse without a real C++ frontend.
 */

#include <algorithm>
#include <cctype>
#include <map>
#include <regex>
#include <string>
#include <vector>

#include "internal.hh"

namespace qpip::lint::detail {

namespace {

/** One string literal: offset of its opening quote in f.all + body. */
struct Lit
{
    std::size_t offset = 0;
    const std::string *body = nullptr;
};

/**
 * Re-attach literal bodies to their (blanked) positions in the joined
 * code view: quote characters in the code come in pairs, pair j on
 * line i is lx.strings[i][j].
 */
std::vector<Lit>
literalPositions(const FileData &f)
{
    std::vector<Lit> out;
    for (std::size_t i = 0; i < f.lx.code.size(); ++i) {
        std::size_t pair = 0;
        bool open = false;
        for (std::size_t c = 0; c < f.lx.code[i].size(); ++c) {
            if (f.lx.code[i][c] != '"')
                continue;
            if (!open) {
                if (pair < f.lx.strings[i].size())
                    out.push_back(Lit{f.starts[i] + c,
                                      &f.lx.strings[i][pair]});
                ++pair;
            }
            open = !open;
        }
    }
    return out;
}

std::vector<const std::string *>
literalsInRange(const std::vector<Lit> &lits, std::size_t begin,
                std::size_t end)
{
    std::vector<const std::string *> out;
    for (const auto &l : lits)
        if (l.offset >= begin && l.offset < end)
            out.push_back(l.body);
    return out;
}

/**
 * Offsets where a top-level brace group closed; the scope ordinal of
 * an offset is how many groups closed before it. Good enough to tell
 * "same function" apart for duplicate-registration detection.
 */
std::vector<std::size_t>
scopeBoundaries(const std::string &all)
{
    std::vector<std::size_t> out;
    int depth = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (all[i] == '{')
            ++depth;
        else if (all[i] == '}' && depth > 0 && --depth == 0)
            out.push_back(i);
    }
    return out;
}

int
scopeIdAt(const std::vector<std::size_t> &bounds, std::size_t offset)
{
    return static_cast<int>(
        std::upper_bound(bounds.begin(), bounds.end(), offset) -
        bounds.begin());
}

/** End offset (exclusive) of the first top-level call argument. */
std::size_t
firstArgEnd(const std::string &all, std::size_t open, std::size_t close)
{
    int depth = 0;
    for (std::size_t i = open + 1; i < close; ++i) {
        const char c = all[i];
        if (c == '(' || c == '[' || c == '{')
            ++depth;
        else if (c == ')' || c == ']' || c == '}')
            --depth;
        else if (c == ',' && depth == 0)
            return i;
    }
    return close > 0 ? close - 1 : close;
}

/** Identifier ending right before @p pos (walking back over ws). */
std::string
identBefore(const std::string &all, std::size_t pos)
{
    while (pos > 0 && std::isspace(static_cast<unsigned char>(
                          all[pos - 1])))
        --pos;
    std::size_t end = pos;
    while (pos > 0 &&
           (std::isalnum(static_cast<unsigned char>(all[pos - 1])) ||
            all[pos - 1] == '_'))
        --pos;
    return all.substr(pos, end - pos);
}

/**
 * Is the add/lookup site in a file the stat rules cover? The tool's
 * own sources use ".add(" for diagnostics, so tools/ (and examples/)
 * stay out of the stat index entirely.
 */
bool
statScope(const std::string &path)
{
    std::string p = path;
    std::replace(p.begin(), p.end(), '\\', '/');
    if (p.find("tools/") != std::string::npos ||
        p.find("examples/") != std::string::npos)
        return false;
    return p.find("src/") != std::string::npos ||
           p.find("tests/") != std::string::npos ||
           p.find("bench/") != std::string::npos ||
           classifyPath(p) != Layer::Top;
}

/** Identifiers directly followed by '(' inside [begin, end). */
std::vector<std::string>
calledFnsIn(const std::string &all, std::size_t begin, std::size_t end)
{
    std::vector<std::string> out;
    static const std::regex re(R"(([A-Za-z_]\w*)\s*\()");
    const std::string slice = all.substr(begin, end - begin);
    for (auto it = std::sregex_iterator(slice.begin(), slice.end(), re);
         it != std::sregex_iterator(); ++it)
        out.push_back((*it)[1].str());
    return out;
}

/**
 * Functions defined in the repo style — name at column 0, return type
 * on the previous line — whose bodies 'return "literal";'. These are
 * the stat tag functions (fwStageTag and friends): their return
 * literals are complete path tokens by construction.
 */
void
collectTagFns(const FileData &f, const std::vector<Lit> &lits,
              std::map<std::string, std::vector<std::string>> &out)
{
    static const std::regex defRe(R"((^|\n)([A-Za-z_]\w*)\s*\()");
    const std::string &all = f.all;
    for (auto it = std::sregex_iterator(all.begin(), all.end(), defRe);
         it != std::sregex_iterator(); ++it) {
        const std::size_t open = static_cast<std::size_t>(
            it->position(2) + (*it)[2].length());
        std::size_t parenOpen = all.find('(', open);
        if (parenOpen == std::string::npos)
            continue;
        const std::size_t parenEnd = skipParens(all, parenOpen);
        if (parenEnd == std::string::npos)
            continue;
        std::size_t p = parenEnd;
        while (p < all.size() && std::isspace(static_cast<unsigned char>(
                                     all[p])))
            ++p;
        if (p >= all.size() || all[p] != '{')
            continue; // declaration, not a definition
        int depth = 0;
        std::size_t bodyEnd = p;
        for (; bodyEnd < all.size(); ++bodyEnd) {
            if (all[bodyEnd] == '{')
                ++depth;
            else if (all[bodyEnd] == '}' && --depth == 0)
                break;
        }
        static const std::regex retRe(R"(\breturn\s*")");
        const std::string body = all.substr(p, bodyEnd - p);
        for (auto rit =
                 std::sregex_iterator(body.begin(), body.end(), retRe);
             rit != std::sregex_iterator(); ++rit) {
            const std::size_t quote = p +
                static_cast<std::size_t>(rit->position()) +
                static_cast<std::size_t>(rit->length()) - 1;
            for (const auto &l : lits) {
                if (l.offset == quote) {
                    out[(*it)[2].str()].push_back(*l.body);
                    break;
                }
            }
        }
    }
}

void
collectStatSites(const FileData &f, const std::vector<Lit> &lits,
                 ProjectIndex &ix)
{
    const std::string &all = f.all;
    const std::vector<std::size_t> scopes = scopeBoundaries(all);
    const std::size_t firstAdd = ix.statAdds.size();

    static const std::regex addRe(
        R"((\bregStat|\.\s*add|->\s*add)\s*\()");
    for (auto it = std::sregex_iterator(all.begin(), all.end(), addRe);
         it != std::sregex_iterator(); ++it) {
        const std::size_t open = static_cast<std::size_t>(
            it->position() + it->length() - 1);
        const std::size_t close = skipParens(all, open);
        if (close == std::string::npos)
            continue;
        const std::size_t argEnd = firstArgEnd(all, open, close);
        const auto bodies = literalsInRange(lits, open + 1, argEnd);
        if (bodies.empty())
            continue; // first argument carries no literal: not a stat
        StatAddSite site;
        site.file = &f;
        site.line = f.lineOf(static_cast<std::size_t>(it->position()));
        const std::string head = (*it)[1].str();
        site.receiver = head.starts_with("regStat")
                            ? "this"
                            : identBefore(all, static_cast<std::size_t>(
                                                   it->position()));
        for (const auto *b : bodies)
            site.literals.push_back(*b);
        // Whole-literal: the argument is exactly one string literal.
        std::string arg = all.substr(open + 1, argEnd - open - 1);
        arg.erase(std::remove_if(arg.begin(), arg.end(),
                                 [](char c) {
                                     return std::isspace(
                                         static_cast<unsigned char>(c));
                                 }),
                  arg.end());
        site.wholeLiteral = arg == "\"\"";
        site.calledFns = calledFnsIn(all, open + 1, argEnd);
        site.scopeId = scopeIdAt(
            scopes, static_cast<std::size_t>(it->position()));
        ix.statAdds.push_back(std::move(site));
    }

    // Leaf tables: StatGroup::init(registry, prefix, {{"leaf", stat},
    // ...}) registers every pair whose first element is one literal.
    static const std::regex initRe(R"((\.|->)\s*init\s*\()");
    for (auto it = std::sregex_iterator(all.begin(), all.end(), initRe);
         it != std::sregex_iterator(); ++it) {
        const std::size_t open = static_cast<std::size_t>(
            it->position() + it->length() - 1);
        const std::size_t close = skipParens(all, open);
        if (close == std::string::npos)
            continue;
        const auto nextSolid = [&all](std::size_t p) {
            while (p < all.size() &&
                   std::isspace(static_cast<unsigned char>(all[p])))
                ++p;
            return p;
        };
        for (std::size_t b = all.find('{', open); b < close;
             b = all.find('{', b + 1)) {
            // The code view blanks literal bodies, so a literal first
            // element reads '{""' followed by ','.
            const std::size_t quote = nextSolid(b + 1);
            if (all.compare(quote, 2, "\"\"") != 0 ||
                all[nextSolid(quote + 2)] != ',')
                continue;
            const auto bodies = literalsInRange(lits, quote, quote + 1);
            if (bodies.empty())
                continue;
            StatAddSite site;
            site.file = &f;
            site.line = f.lineOf(quote);
            site.receiver = identBefore(
                all, static_cast<std::size_t>(it->position()));
            site.literals.push_back(*bodies.front());
            site.wholeLiteral = true;
            site.scopeId = scopeIdAt(
                scopes, static_cast<std::size_t>(it->position()));
            ix.statAdds.push_back(std::move(site));
        }
    }
    // Source order, so "first at line" names the earlier of two sites.
    std::stable_sort(ix.statAdds.begin() + static_cast<std::ptrdiff_t>(
                                               firstAdd),
                     ix.statAdds.end(),
                     [](const StatAddSite &a, const StatAddSite &b) {
                         return a.line < b.line;
                     });

    static const std::regex lookRe(
        R"((\.|->)\s*(counter|counterValue|sample|histogram|match|jsonDump)\s*\()");
    for (auto it = std::sregex_iterator(all.begin(), all.end(), lookRe);
         it != std::sregex_iterator(); ++it) {
        const std::size_t open = static_cast<std::size_t>(
            it->position() + it->length() - 1);
        const std::size_t close = skipParens(all, open);
        if (close == std::string::npos)
            continue;
        const std::size_t argEnd = firstArgEnd(all, open, close);
        const auto bodies = literalsInRange(lits, open + 1, argEnd);
        if (bodies.empty())
            continue; // computed path: nothing to check statically
        StatLookupSite site;
        site.file = &f;
        site.line = f.lineOf(static_cast<std::size_t>(it->position()));
        site.kind = (*it)[2].str();
        for (const auto *b : bodies)
            site.literals.push_back(*b);
        std::string arg = all.substr(open + 1, argEnd - open - 1);
        const auto first = arg.find_first_not_of(" \t\n");
        const auto last = arg.find_last_not_of(" \t\n");
        site.wholeLiteral = first != std::string::npos &&
                            arg[first] == '"' && arg[last] == '"' &&
                            bodies.size() == 1 && last == first + 1;
        site.endsWithLiteral =
            last != std::string::npos && arg[last] == '"';
        ix.statLookups.push_back(std::move(site));
    }
}

std::vector<std::string>
splitDots(const std::string &s)
{
    std::vector<std::string> out;
    std::string cur;
    for (const char c : s) {
        if (c == '.') {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(cur);
    return out;
}

/**
 * Fold one registration site into the declared sets. Whole literals
 * are full (relative) paths; fragments contribute only their
 * dot-bounded segments; tag-function return literals are complete
 * tokens by construction.
 */
void
declareSite(const StatAddSite &site,
            const std::map<std::string, std::vector<std::string>> &tagFns,
            ProjectIndex &ix)
{
    if (site.wholeLiteral) {
        const std::string &path = site.literals[0];
        ix.statLeafPaths.insert(path);
        for (const auto &seg : splitDots(path))
            if (!seg.empty())
                ix.statSegments.insert(seg);
        return;
    }
    for (std::size_t k = 0; k < site.literals.size(); ++k) {
        const std::string &lit = site.literals[k];
        if (lit.empty() || lit == ".")
            continue;
        const bool startsDot = lit.front() == '.';
        const bool endsDot = lit.back() == '.';
        const auto pieces = splitDots(lit);
        for (std::size_t j = 0; j < pieces.size(); ++j) {
            if (pieces[j].empty())
                continue;
            const bool left = j > 0 || startsDot || k == 0;
            const bool right = j + 1 < pieces.size() || endsDot;
            if (left && right)
                ix.statSegments.insert(pieces[j]);
        }
    }
    for (const auto &fn : site.calledFns) {
        const auto it = tagFns.find(fn);
        if (it == tagFns.end())
            continue;
        for (const auto &lit : it->second)
            for (const auto &seg : splitDots(lit))
                if (!seg.empty())
                    ix.statSegments.insert(seg);
    }
}

// --- wire function extraction -------------------------------------

void
collectWireFns(const FileData &f, ProjectIndex &ix)
{
    const std::string &all = f.all;
    static const std::regex defRe(
        R"((^|\n)(serialize|parse)([A-Za-z_]\w*)\s*\()");
    for (auto it = std::sregex_iterator(all.begin(), all.end(), defRe);
         it != std::sregex_iterator(); ++it) {
        const std::size_t nameAt =
            static_cast<std::size_t>(it->position(2));
        std::size_t parenOpen = all.find('(', nameAt);
        if (parenOpen == std::string::npos)
            continue;
        const std::size_t parenEnd = skipParens(all, parenOpen);
        if (parenEnd == std::string::npos)
            continue;
        std::size_t p = parenEnd;
        while (p < all.size() && std::isspace(static_cast<unsigned char>(
                                     all[p])))
            ++p;
        if (p >= all.size() || all[p] != '{')
            continue; // declaration only
        int depth = 0;
        std::size_t bodyEnd = p;
        for (; bodyEnd < all.size(); ++bodyEnd) {
            if (all[bodyEnd] == '{')
                ++depth;
            else if (all[bodyEnd] == '}' && --depth == 0)
                break;
        }
        const std::string body = all.substr(p, bodyEnd - p);

        const bool isSer = (*it)[2].str() == "serialize";
        static const std::regex varRe(
            R"(\bByte(Writer|Reader)\s+(\w+)\s*[;({])");
        std::smatch vm;
        std::string var;
        if (std::regex_search(body, vm, varRe))
            var = vm[2].str();
        if (var.empty())
            continue; // no writer/reader: not a field-op body

        WireFn fn;
        fn.file = &f;
        fn.line = f.lineOf(nameAt);
        fn.name = (*it)[3].str();

        const std::regex opRe(
            "\\b" + var +
            R"(\s*\.\s*(u8|u16|u32|u64|bytes|rest|zeros|skip)\s*\()");
        static const std::regex caseRe(R"(\bcase\s+([\w:]+)\s*:)");
        struct Op
        {
            std::size_t at;
            std::string tok;
        };
        std::vector<Op> ops;
        for (auto oit =
                 std::sregex_iterator(body.begin(), body.end(), opRe);
             oit != std::sregex_iterator(); ++oit) {
            std::string t = (*oit)[1].str();
            if (t == "rest")
                t = "bytes";
            else if (t == "zeros" || t == "skip")
                t = "pad";
            ops.push_back(
                Op{static_cast<std::size_t>(oit->position()), t});
        }
        for (auto cit =
                 std::sregex_iterator(body.begin(), body.end(), caseRe);
             cit != std::sregex_iterator(); ++cit) {
            std::string label = (*cit)[1].str();
            const auto sep = label.rfind("::");
            if (sep != std::string::npos)
                label = label.substr(sep + 2);
            ops.push_back(Op{static_cast<std::size_t>(cit->position()),
                             "case:" + label});
        }
        std::sort(ops.begin(), ops.end(),
                  [](const Op &a, const Op &b) { return a.at < b.at; });
        for (auto &op : ops)
            fn.ops.push_back(std::move(op.tok));

        auto &dst = isSer ? ix.serializers : ix.parsers;
        dst.emplace(fn.name, std::move(fn));
    }
}

} // namespace

ProjectIndex
buildIndex(const std::vector<FileData> &files)
{
    ProjectIndex ix;

    // Tag functions first: registration sites in any file may call
    // tag functions defined in another.
    std::map<std::string, std::vector<std::string>> tagFns;
    std::map<const FileData *, std::vector<Lit>> litCache;
    for (const auto &f : files) {
        litCache[&f] = literalPositions(f);
        if (statScope(f.path))
            collectTagFns(f, litCache[&f], tagFns);
    }

    for (const auto &f : files) {
        if (statScope(f.path))
            collectStatSites(f, litCache[&f], ix);
        if (f.wireFile)
            collectWireFns(f, ix);
    }

    for (const auto &site : ix.statAdds)
        declareSite(site, tagFns, ix);

    return ix;
}

} // namespace qpip::lint::detail
