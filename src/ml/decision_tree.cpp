#include "ml/decision_tree.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>

#include "common/logging.hpp"
#include "ml/tree_builder.hpp"

namespace gpupm::ml {

DatasetOrder
DatasetOrder::build(const Dataset &data)
{
    DatasetOrder order;
    order._rows = data.size();
    const std::size_t n = order._rows;
    order.columns.resize(static_cast<std::size_t>(numFeatures) * n);
    order.sorted.resize(static_cast<std::size_t>(numFeatures) * n);
    for (std::size_t r = 0; r < n; ++r) {
        for (int f = 0; f < numFeatures; ++f)
            order.columns[static_cast<std::size_t>(f) * n + r] =
                data.x[r][static_cast<std::size_t>(f)];
    }
    for (int f = 0; f < numFeatures; ++f) {
        const double *col = order.column(f);
        std::uint32_t *s =
            order.sorted.data() + static_cast<std::size_t>(f) * n;
        std::iota(s, s + n, 0U);
        // (value, row) is a strict total order; ties land in ascending
        // row order, the canonical tie order both split scans use.
        std::sort(s, s + n, [col](std::uint32_t a, std::uint32_t b) {
            return col[a] != col[b] ? col[a] < col[b] : a < b;
        });
    }
    return order;
}

DecisionTree::DecisionTree(Nodes nodes, int depth)
    : _nodes(std::move(nodes)), _depth(depth)
{
}

void
DecisionTree::fit(const Dataset &data, std::span<const std::uint32_t> rows,
                  const TreeOptions &opts, Pcg32 &rng)
{
    fit(data, rows, opts, rng, nullptr);
}

void
DecisionTree::fit(const Dataset &data, std::span<const std::uint32_t> rows,
                  const TreeOptions &opts, Pcg32 &rng,
                  const DatasetOrder *order)
{
    GPUPM_ASSERT(!rows.empty(), "cannot fit a tree on zero rows");
    GPUPM_ASSERT(data.x.size() == data.y.size(), "dataset x/y mismatch");

    // Canonicalize the bootstrap to ascending row order (counting sort;
    // duplicates stay adjacent), the order the legacy-scan oracle in the
    // tests fits on too. The tree depends only on the drawn row
    // *multiset* — and the presorted engine can derive every
    // per-feature order from the shared DatasetOrder by linear
    // expansion, with value ties visiting in exactly this canonical
    // order.
    thread_local std::vector<std::uint32_t> histogram, canonical;
    histogram.assign(data.size(), 0);
    for (const auto r : rows) {
        GPUPM_ASSERT(r < data.size(), "row index out of range");
        ++histogram[r];
    }
    canonical.clear();
    canonical.reserve(rows.size());
    for (std::uint32_t r = 0; r < data.size(); ++r) {
        for (std::uint32_t c = histogram[r]; c > 0; --c)
            canonical.push_back(r);
    }

    // thread_local so forest fitting reuses one builder's scratch per
    // worker across its trees.
    thread_local TreeBuilder builder;
    if (order) {
        builder.fit(data, *order, canonical, opts, rng, _nodes, _depth);
    } else {
        const DatasetOrder local = DatasetOrder::build(data);
        builder.fit(data, local, canonical, opts, rng, _nodes, _depth);
    }
}

void
DecisionTree::save(std::ostream &os) const
{
    GPUPM_ASSERT(fitted(), "cannot save an unfitted tree");
    os << "tree " << _nodes.size() << ' ' << _depth << '\n';
    // max_digits10 guarantees an exact double round trip.
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    for (const auto &n : _nodes) {
        os << n.feature << ' ' << n.threshold << ' ' << n.left << ' '
           << n.right << ' ' << n.value << '\n';
    }
    GPUPM_ASSERT(os.good(), "stream failure while saving tree");
}

namespace {

bool
isBlank(char c)
{
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/**
 * Parse the next blank-separated numeral of a node line into @p out and
 * advance @p p past it. Returns the error when the field is missing,
 * malformed or out of @p T's range, else nullptr.
 */
template <typename T>
const char *
parseNodeField(const char *&p, const char *end, T &out)
{
    while (p != end && isBlank(*p))
        ++p;
    if (p == end)
        return "truncated tree node list";
    const auto [next, ec] = std::from_chars(p, end, out);
    if (ec == std::errc::result_out_of_range) {
        // 1e999 overflows a double: a non-finite value, as far as the
        // model is concerned.
        if constexpr (std::is_floating_point_v<T>)
            return "tree node with non-finite threshold or value";
        else
            return "tree node out of range";
    }
    if (ec != std::errc() || (next != end && !isBlank(*next)))
        return "malformed tree node field";
    p = next;
    return nullptr;
}

} // namespace

DecisionTree
DecisionTree::load(std::istream &is)
{
    DecisionTree t;
    std::size_t count = 0;
    std::string error = readHeader(is, count, t._depth);
    if (error.empty()) {
        std::string lines;
        readLines(is, count, std::string::npos, lines);
        t._nodes.resize(count);
        error = parseLines(lines, count, t._nodes);
    }
    if (error.empty())
        error = checkShape(t._nodes, t._depth);
    if (!error.empty())
        GPUPM_FATAL(error);
    return t;
}

std::string
DecisionTree::readHeader(std::istream &is, std::size_t &count, int &depth)
{
    std::string tag;
    if (!(is >> tag >> count >> depth) || tag != "tree")
        return "malformed tree header (got '" + tag + "')";
    if (count == 0)
        return "tree with zero nodes";
    std::string rest;
    std::getline(is, rest);
    if (!std::all_of(rest.begin(), rest.end(), isBlank))
        return "malformed tree header (trailing '" + rest + "')";
    return {};
}

std::size_t
DecisionTree::readLines(std::istream &is, std::size_t n, std::size_t bytes,
                        std::string &lines)
{
    // Chunks of what the stream buffer holds, scanned for line ends: a
    // getline call per line costs several times the copy. The part of
    // the last chunk past the last line taken goes back with sputbackc,
    // which cannot fail for characters of the current get area, so the
    // stream is left just past that line, in the state getline leaves.
    constexpr auto kChunk = static_cast<std::streamsize>(kReadChunk);
    constexpr auto eof = std::char_traits<char>::eof();
    std::streambuf *const sb = is.rdbuf();
    std::size_t read = 0;
    std::size_t line = lines.size(); // start of the line being read
    while (read < n) {
        if (sb == nullptr || sb->sgetc() == eof) {
            // A last line without '\n' still counts.
            if (lines.size() > line) {
                lines.push_back('\n');
                ++read;
            }
            is.setstate(read < n ? std::ios::eofbit | std::ios::failbit
                                 : std::ios::eofbit);
            break;
        }
        const std::size_t at = lines.size();
        const std::streamsize take =
            std::clamp<std::streamsize>(sb->in_avail(), 1, kChunk);
        lines.resize(at + static_cast<std::size_t>(take));
        sb->sgetn(lines.data() + at, take);
        const char *p = lines.data() + at;
        const char *const end = lines.data() + lines.size();
        while ((p = static_cast<const char *>(std::memchr(
                    p, '\n', static_cast<std::size_t>(end - p))))) {
            ++read;
            line = static_cast<std::size_t>(++p - lines.data());
            if (read == n || line >= bytes) {
                for (std::size_t i = lines.size(); i > line; --i) {
                    GPUPM_ASSERT(sb->sputbackc(lines[i - 1]) != eof,
                                 "stream buffer refused a put-back");
                }
                lines.resize(line);
                return read;
            }
        }
    }
    return read;
}

std::string
DecisionTree::parseLines(std::string_view lines, std::size_t count,
                         std::span<Node> out)
{
    // One node per line, parsed with from_chars: stream extraction
    // dominated loading a default model (47.5 MB of numerals). Blanks
    // include '\r', so CRLF files load.
    const char *p = lines.data();
    const char *const stop = p + lines.size();
    for (auto &n : out) {
        const auto *eol = static_cast<const char *>(
            std::memchr(p, '\n', static_cast<std::size_t>(stop - p)));
        if (eol == nullptr)
            return "truncated tree node list";
        const char *const line = p;
        const char *error = parseNodeField(p, eol, n.feature);
        if (!error)
            error = parseNodeField(p, eol, n.threshold);
        if (!error)
            error = parseNodeField(p, eol, n.left);
        if (!error)
            error = parseNodeField(p, eol, n.right);
        if (!error)
            error = parseNodeField(p, eol, n.value);
        if (error)
            return error;
        if (!std::all_of(p, eol, isBlank)) {
            return "trailing characters on tree node line '" +
                   std::string(line, eol) + "'";
        }
        if (n.feature >= numFeatures ||
            (n.feature >= 0 &&
             (n.left < 0 || n.right < 0 ||
              n.left >= static_cast<std::int32_t>(count) ||
              n.right >= static_cast<std::int32_t>(count)))) {
            return "tree node out of range";
        }
        // A corrupted model file must fail here, not poison every
        // later prediction with NaN/inf.
        if (!std::isfinite(n.threshold) || !std::isfinite(n.value))
            return "tree node with non-finite threshold or value";
        p = eol + 1;
    }
    return {};
}

std::string
DecisionTree::checkShape(std::span<const Node> nodes, int depth)
{
    // Breadth-first from the root, marking each node as it is queued.
    // A child already marked is reached twice; the queue therefore
    // holds each node at most once, and a tree is whole when the walk
    // has queued every node. FlatForest::appendTree walks the same
    // edges and would loop or grow without bound on a cycle. Children
    // are in range: parseLines checked each line.
    if (nodes.empty())
        return {};
    std::vector<std::uint8_t> seen(nodes.size(), 0);
    std::vector<std::int32_t> queue;
    queue.reserve(nodes.size());
    queue.push_back(0);
    seen[0] = 1;
    // The queue holds one level after another; level_end is where the
    // level of node i ends.
    int levels = 0;
    for (std::size_t i = 0, level_end = 1; i < queue.size(); ++i) {
        if (i == level_end) {
            ++levels;
            level_end = queue.size();
        }
        const Node &n = nodes[static_cast<std::size_t>(queue[i])];
        if (n.feature < 0)
            continue;
        for (const std::int32_t child : {n.left, n.right}) {
            auto &mark = seen[static_cast<std::size_t>(child)];
            if (mark) {
                return "tree node " + std::to_string(child) +
                       " is reached twice from the root";
            }
            mark = 1;
            queue.push_back(child);
        }
    }
    if (queue.size() < nodes.size()) {
        const auto unreached = std::find(seen.begin(), seen.end(), 0);
        return "tree node " + std::to_string(unreached - seen.begin()) +
               " is not reached from the root";
    }
    if (levels != depth) {
        return "tree header depth " + std::to_string(depth) +
               " but its nodes are " + std::to_string(levels) + " deep";
    }
    return {};
}

double
DecisionTree::predict(const FeatureVector &f) const
{
    GPUPM_ASSERT(fitted(), "predict on an unfitted tree");
    std::int32_t i = 0;
    for (;;) {
        const Node &n = _nodes[static_cast<std::size_t>(i)];
        if (n.feature < 0)
            return n.value;
        i = f[static_cast<std::size_t>(n.feature)] <= n.threshold
                ? n.left
                : n.right;
    }
}

} // namespace gpupm::ml
