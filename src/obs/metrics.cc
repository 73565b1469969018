#include "obs/metrics.hh"

#include "common/json.hh"

namespace stack3d {
namespace obs {

double *
CounterSet::find(const std::string &name)
{
    for (Scalar &s : _scalars) {
        if (s.first == name)
            return &s.second;
    }
    return nullptr;
}

void
CounterSet::set(const std::string &name, double value)
{
    if (double *slot = find(name))
        *slot = value;
    else
        _scalars.emplace_back(name, value);
}

void
CounterSet::add(const std::string &name, double delta)
{
    if (double *slot = find(name))
        *slot += delta;
    else
        _scalars.emplace_back(name, delta);
}

void
CounterSet::setSeries(const std::string &name,
                      std::vector<double> values)
{
    for (Series &s : _series) {
        if (s.first == name) {
            s.second = std::move(values);
            return;
        }
    }
    _series.emplace_back(name, std::move(values));
}

void
CounterSet::accumulate(const CounterSet &other)
{
    for (const Scalar &s : other._scalars)
        add(s.first, s.second);
    for (const Series &s : other._series) {
        bool present = false;
        for (const Series &mine : _series) {
            if (mine.first == s.first) {
                present = true;
                break;
            }
        }
        if (!present)
            _series.push_back(s);
    }
}

void
CounterSet::mergePrefixed(const CounterSet &other,
                          const std::string &prefix)
{
    for (const Scalar &s : other._scalars)
        set(prefix + s.first, s.second);
    for (const Series &s : other._series)
        setSeries(prefix + s.first, s.second);
}

bool
CounterSet::has(const std::string &name) const
{
    for (const Scalar &s : _scalars) {
        if (s.first == name)
            return true;
    }
    for (const Series &s : _series) {
        if (s.first == name)
            return true;
    }
    return false;
}

double
CounterSet::value(const std::string &name, double fallback) const
{
    for (const Scalar &s : _scalars) {
        if (s.first == name)
            return s.second;
    }
    return fallback;
}

namespace {

/** Stride-downsample keeping the first and last points. */
std::vector<double>
downsample(const std::vector<double> &xs, std::size_t max_points)
{
    if (xs.size() <= max_points || max_points < 2)
        return xs;
    std::vector<double> out;
    out.reserve(max_points);
    double stride = double(xs.size() - 1) / double(max_points - 1);
    for (std::size_t i = 0; i < max_points; ++i) {
        std::size_t idx = std::size_t(double(i) * stride + 0.5);
        if (idx >= xs.size())
            idx = xs.size() - 1;
        out.push_back(xs[idx]);
    }
    out.back() = xs.back();
    return out;
}

} // namespace

void
writeCountersJson(JsonWriter &w, const CounterSet &counters,
                  std::size_t max_series_points)
{
    w.beginObject();
    for (const CounterSet::Scalar &s : counters.scalars())
        w.key(s.first).value(s.second);
    for (const CounterSet::Series &s : counters.series()) {
        w.key(s.first);
        w.beginArray();
        for (double v : downsample(s.second, max_series_points))
            w.value(v);
        w.endArray();
    }
    w.endObject();
}

} // namespace obs
} // namespace stack3d
