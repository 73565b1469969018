/**
 * @file
 * perfbench_driver: runs one perfbench workload in this process and
 * prints its raw measurements as one JSON line. perfbench/run.py is
 * the user-facing command; it builds this driver, samples set-up
 * time, turns the raw record into metrics and checks the output
 * digests.
 *
 *   perfbench_driver --workload memory|logic-thermal|serve-mix
 *                    --seed N --seconds S --trace 0|1
 *                    [--setup-only | --setup-probe K]
 *
 * --seconds is the length of the timed phase: batch passes after a
 * warm-up pass, or the serve-mix traffic schedule. A traced batch
 * workload runs one pass and its direct-call composition instead.
 * --setup-only stops after set-up and
 * prints {"ready": <t>}, the CLOCK_MONOTONIC time at which set-up
 * finished. --setup-probe K starts K such set-up-only copies of this
 * program, one after another, and prints {"setup_s": [...]}: each
 * copy's time from just before its spawn to its ready stamp. Spawning
 * from here rather than from the Python runner keeps the runner's own
 * process-creation cost out of the figure.
 */

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "probe.hh"
#include "workloads.hh"

extern char **environ;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver "
                 "--workload memory|logic-thermal|serve-mix --seed N "
                 "--seconds S --trace 0|1 "
                 "[--setup-only | --setup-probe K]\n",
                 why);
    std::exit(2);
}

perfbench::Args
parseArgs(int argc, char **argv)
{
    perfbench::Args a;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing flag value");
            return argv[++i];
        };
        try {
            if (std::strcmp(arg, "--workload") == 0)
                a.workload = next();
            else if (std::strcmp(arg, "--seed") == 0)
                a.seed = std::stoull(next());
            else if (std::strcmp(arg, "--seconds") == 0)
                a.seconds = std::stod(next());
            else if (std::strcmp(arg, "--trace") == 0)
                a.trace = next() == "1";
            else if (std::strcmp(arg, "--setup-only") == 0)
                a.setup_only = true;
            else if (std::strcmp(arg, "--setup-probe") == 0)
                a.setup_probe = unsigned(std::stoul(next()));
            else
                usage("unknown flag");
        } catch (const std::logic_error &) {
            usage("bad flag value");
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/** Seconds from spawning one set-up-only copy to its ready stamp. */
double
setupSample(const perfbench::Args &args)
{
    std::string seed = std::to_string(args.seed);
    std::vector<std::string> argv_s = {
        "/proc/self/exe", "--workload", args.workload, "--seed", seed,
        "--setup-only"};
    std::vector<char *> argv_c;
    for (std::string &a : argv_s)
        argv_c.push_back(a.data());
    argv_c.push_back(nullptr);

    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("setup probe: pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addclose(&fa, fds[1]);
    pid_t pid = 0;
    const double t0 = perfbench::monotonicNow();
    int rc = posix_spawn(&pid, "/proc/self/exe", &fa, nullptr,
                         argv_c.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(fds[1]);
    std::string out;
    if (rc == 0) {
        char buf[256];
        ssize_t n;
        while ((n = read(fds[0], buf, sizeof buf)) > 0)
            out.append(buf, std::size_t(n));
    }
    close(fds[0]);
    int status = 0;
    if (rc != 0 || waitpid(pid, &status, 0) != pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("setup probe: set-up-only copy failed");
    const std::string key = "{\"ready\": ";
    if (out.rfind(key, 0) != 0)
        throw std::runtime_error("setup probe: no ready stamp");
    return std::strtod(out.c_str() + key.size(), nullptr) - t0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);
    auto ready = [&args] {
        if (!args.setup_only)
            return;
        std::printf("{\"ready\": %.9f}\n", monotonicNow());
        std::fflush(stdout);
    };
    DriverResult out;
    try {
        if (args.setup_probe > 0) {
            std::string line = "{\"setup_s\": [";
            for (unsigned i = 0; i < args.setup_probe; ++i) {
                char sample[32];
                std::snprintf(sample, sizeof sample, "%s%.9f",
                              i ? ", " : "", setupSample(args));
                line += sample;
            }
            std::printf("%s]}\n", line.c_str());
            return 0;
        }
        if (args.workload == "memory")
            runMemory(args, ready, out);
        else if (args.workload == "logic-thermal")
            runLogicThermal(args, ready, out);
        else if (args.workload == "serve-mix")
            runServeMix(args, ready, out);
        else
            usage("unknown workload");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
    if (args.setup_only)
        return 0;
    if (out.peak_rss_mb == 0.0)
        out.peak_rss_mb = ProcessSample::now().max_rss_mb;
    out.print();
    return 0;
}
