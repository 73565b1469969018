#include "probe.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>

namespace perfbench {

double
monotonicNow()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

ProcessSample
ProcessSample::now()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    ProcessSample s;
    s.user_s = double(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6;
    s.sys_s = double(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6;
    s.minor_faults = double(ru.ru_minflt);
    s.major_faults = double(ru.ru_majflt);
    s.max_rss_mb = double(ru.ru_maxrss) / 1024.0;   // KiB on Linux
    return s;
}

double
vmRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmRSS:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

PhaseCost
PhaseTimer::stop() const
{
    ProcessSample end = ProcessSample::now();
    PhaseCost c;
    c.wall_s = monotonicNow() - _t0;
    c.user_s = end.user_s - _start.user_s;
    c.sys_s = end.sys_s - _start.sys_s;
    c.minor_faults = end.minor_faults - _start.minor_faults;
    c.major_faults = end.major_faults - _start.major_faults;
    return c;
}

void
LayerClock::charge(const std::string &layer, const std::string &metric,
                   double seconds)
{
    _metrics[metric] += seconds;
    _self[layer] += seconds;
}

double
LayerClock::metric(const std::string &name) const
{
    auto it = _metrics.find(name);
    return it == _metrics.end() ? 0.0 : it->second;
}

double
LayerClock::totalSelf() const
{
    double sum = 0.0;
    for (const auto &[layer, seconds] : _self)
        sum += seconds;
    return sum;
}

void
DriverResult::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
    }
}

void
DriverResult::print() const
{
    std::ostringstream os;
    stack3d::JsonWriter w(os, /*compact=*/true);
    w.beginObject();
    w.key("iterations").beginArray();
    for (const PhaseCost &c : iterations) {
        w.beginObject();
        w.key("wall_s").valueExact(c.wall_s);
        w.key("user_s").valueExact(c.user_s);
        w.key("sys_s").valueExact(c.sys_s);
        w.key("minor_faults").valueExact(c.minor_faults);
        w.key("major_faults").valueExact(c.major_faults);
        w.endObject();
    }
    w.endArray();
    w.key("latencies").beginObject();
    for (const auto &[name, samples] : latencies) {
        w.key(name).beginArray();
        for (double s : samples)
            w.valueExact(s);
        w.endArray();
    }
    w.endObject();
    w.key("ops").beginObject();
    for (const auto &[name, list] : ops) {
        w.key(name).beginArray();
        for (const auto &[latency, ok] : list) {
            w.beginArray();
            w.valueExact(latency);
            w.value(ok);
            w.endArray();
        }
        w.endArray();
    }
    w.endObject();
    w.key("digests").beginObject();
    for (const auto &[name, hex] : digests)
        w.key(name).value(hex);
    w.endObject();
    w.key("attempted").value(attempted);
    w.key("failed").value(failed);
    w.key("failures").beginArray();
    for (const std::string &f : failures)
        w.value(f);
    w.endArray();
    w.key("layers").beginObject();
    for (const auto &[name, v] : layers)
        w.key(name).valueExact(v);
    w.endObject();
    w.key("peak_rss_mb").valueExact(peak_rss_mb);
    if (variant) {
        w.key("variant").value(*variant);
        w.key("variants").value(kInputVariants);
    }
    w.endObject();
    std::cout << os.str() << std::endl;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace perfbench
