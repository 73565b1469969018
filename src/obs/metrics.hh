/**
 * @file
 * Metrics export: CounterSet, an insertion-ordered bag of named
 * numeric counters (scalars plus optional series such as a thermal
 * residual curve), and its JSON serializer.
 *
 * CounterSet is the interchange format between subsystems and run
 * output: the mem hierarchy, cpu suite, thermal solver, and exec pool
 * each append their snapshot under a dotted prefix
 * ("mem.<option>.l2.misses", "pool.steals", ...), the study runners
 * fold the snapshots into StudyMeta, and the benches emit them as the
 * "counters" object of every --json / --stats-json output.
 */

#ifndef STACK3D_OBS_METRICS_HH
#define STACK3D_OBS_METRICS_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace stack3d {

class JsonWriter;

namespace obs {

/**
 * Named numeric counters with insertion order preserved (so JSON
 * output is stable and diffable across runs). Lookup is linear —
 * sets hold tens of entries, and the record path is set()/add(),
 * not queries.
 */
class CounterSet
{
  public:
    using Scalar = std::pair<std::string, double>;
    using Series = std::pair<std::string, std::vector<double>>;

    /** Set (or overwrite) a scalar counter. */
    void set(const std::string &name, double value);

    /** Add to a scalar counter, creating it at zero if absent. */
    void add(const std::string &name, double delta);

    /** Set (or overwrite) a series counter. */
    void setSeries(const std::string &name, std::vector<double> values);

    /**
     * Sum other's scalars into this set; series absent here are
     * copied, series present keep this set's values.
     */
    void accumulate(const CounterSet &other);

    /** Copy other's entries into this set under "prefix" + name. */
    void mergePrefixed(const CounterSet &other,
                       const std::string &prefix);

    bool has(const std::string &name) const;

    /** Scalar value, or fallback when absent. */
    double value(const std::string &name, double fallback = 0.0) const;

    bool empty() const { return _scalars.empty() && _series.empty(); }
    std::size_t size() const { return _scalars.size() + _series.size(); }

    const std::vector<Scalar> &scalars() const { return _scalars; }
    const std::vector<Series> &series() const { return _series; }

  private:
    double *find(const std::string &name);

    std::vector<Scalar> _scalars;
    std::vector<Series> _series;
};

/**
 * Emit a CounterSet as one JSON object value: scalars first (in
 * insertion order), then series as arrays. Series longer than
 * @p max_series_points are downsampled by striding (first and last
 * points always kept) so residual curves stay plot-usable without
 * bloating result files.
 */
void writeCountersJson(JsonWriter &w, const CounterSet &counters,
                       std::size_t max_series_points = 256);

} // namespace obs
} // namespace stack3d

#endif // STACK3D_OBS_METRICS_HH
