/**
 * @file
 * Benchmark driver: runs one workload in this process, one simulation
 * at a time (a closed loop), and prints one JSON object on stdout with
 * every simulated result it produced and the measured metrics.
 * perfbench/run.py builds this binary, checks the results against
 * perfbench/expected.json and prints the benchmark's result line.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    --scratch DIR
 *
 * --trace 0 measures the end-to-end metrics through the public entry
 * points (sweep::materializeConfig, Simulator). --trace 1 measures the
 * per-layer metrics: it runs the grid through sweep::runBatch at one
 * thread, then reruns every simulation on a stack built in probe.cc,
 * once plain and once with the timing decorator, and all must
 * reproduce the Simulator's results exactly. DIR receives the tracing
 * workload's Chrome trace, which is deleted after every simulation.
 */
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "astra/simulator.h"
#include "common/json.h"
#include "common/logging.h"
#include "probe.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "telemetry/telemetry.h"
#include "workloads.h"

using namespace astra;
using namespace perfbench;

namespace {

/** Every simulation of a workload is repeated at least this often per
 *  run, so every reported statistic rests on several samples. */
constexpr int kMinReps = 3;

double
secondsSince(int64_t start_ns)
{
    return double(nowNs() - start_ns) * 1e-9;
}

/**
 * CPU time of the calling thread in nanoseconds. Every simulation runs
 * on this thread, so this is the host time the simulator spent,
 * without the time the thread waited for a core: other processes, and
 * hypervisor steal, which the guest kernel subtracts. The end-to-end
 * metrics use it; the wall clock still bounds how long a run measures.
 */
int64_t
cpuNs()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return int64_t(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/** Thread CPU time and wall time elapsed since construction. */
struct Stopwatch
{
    int64_t cpu = cpuNs();
    int64_t wall = nowNs();

    double cpuS() const { return double(cpuNs() - cpu) * 1e-9; }
    double wallS() const { return secondsSince(wall); }
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** splitmix64 step. */
uint64_t
mix(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Host-speed reference for the end-to-end times. A shared host's speed
 * drifts with its neighbours' load: a lower clock when the socket is
 * busy, caches and memory shared with other machines. On the 4-vCPU
 * Xeon VM this benchmark was written on, the same simulation's CPU
 * time moved by up to 1.7x within minutes, more than any bound a
 * metric could carry. So a pass of a fixed reference kernel runs
 * before every simulation and once after the last, and the run's
 * times are reported at reference speed: median time x factor().
 *
 * The kernel is the hold model, the classic event-queue benchmark: pop
 * the earliest timestamp from a binary heap of 2^16 (512 KiB) and push
 * it back later, 2^19 times. It is benchmark code, so a change to the
 * simulator does not move it. The simulator, with its larger working
 * set, slows more than the kernel: over 30 runs on that VM, the log of
 * a run's median simulation time rose 1.33 to 1.42 times as fast as the
 * log of its median pass time, on each workload; hence kExponent.
 */
class HostSpeed
{
  public:
    /** A pass's CPU time at reference speed: about its median on the
     *  VM above. */
    static constexpr double kReferenceS = 0.07;
    static constexpr double kExponent = 1.35;

    /** Time one pass. */
    void
    sample()
    {
        constexpr size_t kHeap = size_t(1) << 16;
        constexpr int kOps = 1 << 19;
        uint64_t state = 0x5eed;
        std::vector<uint64_t> heap(kHeap);
        for (uint64_t &t : heap)
            t = mix(state) & 0xffffff;
        std::make_heap(heap.begin(), heap.end(), std::greater<>());
        Stopwatch sw;
        for (int i = 0; i < kOps; ++i) {
            std::pop_heap(heap.begin(), heap.end(), std::greater<>());
            heap.back() += 1 + (mix(state) & 0xffff);
            std::push_heap(heap.begin(), heap.end(), std::greater<>());
        }
        passes_.push_back(sw.cpuS());
        // The heap's head depends on every step; keeping it stops the
        // compiler from dropping the loop.
        sink_ = sink_ + heap.front();
    }

    /** Multiplier taking the run's times to reference speed. */
    double
    factor() const
    {
        return std::pow(kReferenceS / median(passes_), kExponent);
    }

    const std::vector<double> &passes() const { return passes_; }

  private:
    std::vector<double> passes_;
    volatile uint64_t sink_ = 0;
};

/** Every simulation the run produced, in order, for run.py's checks. */
class Recorder
{
  public:
    /** `phase` names how the simulation ran; `seeded` is false when
     *  its inputs are the default seed's (comparable to the record). */
    void
    ok(const char *phase, bool seeded, size_t row, int rep,
       const SimResult &r)
    {
        json::Object o = tagOf(phase, seeded, row, rep);
        o["total_time_ns"] = json::Value(r.totalTimeNs);
        o["events"] = json::Value(r.events);
        o["messages"] = json::Value(r.messages);
        sims_.push_back(json::Value(std::move(o)));
    }

    void
    error(const char *phase, bool seeded, size_t row, int rep,
          const std::string &what)
    {
        json::Object o = tagOf(phase, seeded, row, rep);
        o["error"] = json::Value(what);
        sims_.push_back(json::Value(std::move(o)));
        std::fprintf(stderr, "perfbench: %s row %zu failed: %s\n", phase,
                     row, what.c_str());
    }

    json::Array take() { return std::move(sims_); }

  private:
    static json::Object
    tagOf(const char *phase, bool seeded, size_t row, int rep)
    {
        json::Object o;
        o["phase"] = json::Value(phase);
        o["inputs"] = json::Value(seeded ? "seeded" : "default");
        o["row"] = json::Value(uint64_t(row));
        o["rep"] = json::Value(rep);
        return o;
    }

    json::Array sims_;
};

SimResult
resultOf(const Report &r)
{
    return SimResult{r.totalTime, r.events, r.messages};
}

struct Run
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string traceFile;
    Recorder rec;
    /** Every timing sample behind a reported statistic, by metric. */
    std::map<std::string, std::vector<double>> samples;

    bool seeded() const { return seed != kDefaultSeed; }

    json::Value
    spec(uint64_t s) const
    {
        return workloadSpec(workload, s, traceFile);
    }

    void
    dropTraceFile() const
    {
        std::error_code ec;
        std::filesystem::remove(traceFile, ec);
    }
};

/**
 * Repeat `rep` until the run has measured for `seconds` (stopping
 * before a repetition that would overrun), but at least `min_reps`
 * times.
 */
template <typename F>
void
repeatFor(double seconds, int min_reps, F rep)
{
    int64_t start = nowNs();
    for (int i = 0;; ++i) {
        int64_t rs = nowNs();
        rep(i);
        double last = secondsSince(rs);
        if (i + 1 >= min_reps && secondsSince(start) + last > seconds)
            break;
    }
}

/**
 * Re-simulate the default seed's gate rows through Simulator, whatever
 * the run's seed, so every run is checked against the recorded
 * results. Also warms the allocator and the callback pool.
 */
void
runGate(Run &run)
{
    sweep::SweepSpec spec =
        sweep::SweepSpec::fromJson(run.spec(kDefaultSeed));
    for (size_t row : gateRows(run.workload)) {
        try {
            sweep::MaterializedConfig mat =
                sweep::materializeConfig(spec.config(row).doc);
            Simulator sim(std::move(mat.topo), std::move(mat.cfg));
            run.rec.ok("gate", false, row, 0,
                       resultOf(sim.run(mat.workload)));
        } catch (const std::exception &e) {
            run.rec.error("gate", false, row, 0, e.what());
        }
        run.dropTraceFile();
    }
}

using Metrics = std::map<std::string, double>;

double
peakRssMb()
{
    return double(telemetry::peakRssBytes()) / (1024.0 * 1024.0);
}

/**
 * End-to-end metrics. The rows of the workload's grid (one row except
 * on moe_sweep) are set up (the row's SweepSpec expansion,
 * materializeConfig and the Simulator constructor) and run one
 * simulation at a time, cycling through the rows, each after a
 * HostSpeed pass. wall_s and setup_s sum each row's median run and
 * set-up time, at reference speed; sims_per_s is rows / their sum. The
 * spec document is parsed once, untimed.
 */
Metrics
endToEnd(Run &run)
{
    sweep::SweepSpec spec = sweep::SweepSpec::fromJson(run.spec(run.seed));
    size_t rows = spec.configCount();
    HostSpeed speed;
    std::vector<std::vector<double>> setup(rows), wall(rows);
    repeatFor(run.seconds, kMinReps, [&](int rep) {
        for (size_t row = 0; row < rows; ++row) {
            speed.sample();
            try {
                Stopwatch t0;
                sweep::MaterializedConfig mat =
                    sweep::materializeConfig(spec.config(row).doc);
                Simulator sim(std::move(mat.topo), std::move(mat.cfg));
                double s = t0.cpuS();
                Stopwatch t1;
                Report r = sim.run(mat.workload);
                double w = t1.cpuS();
                run.rec.ok("run", run.seeded(), row, rep, resultOf(r));
                setup[row].push_back(s);
                wall[row].push_back(w);
                run.samples["setup_s"].push_back(s);
                run.samples["wall_s"].push_back(w);
                run.samples["wall_clock_s"].push_back(t1.wallS());
            } catch (const std::exception &e) {
                run.rec.error("run", run.seeded(), row, rep, e.what());
            }
            run.dropTraceFile();
        }
    });
    speed.sample();
    double factor = speed.factor();
    run.samples["host_speed_s"] = speed.passes();
    run.samples["host_speed_factor"] = {factor};
    double setup_s = 0.0, wall_s = 0.0;
    for (size_t row = 0; row < rows; ++row) {
        setup_s += median(setup[row]);
        wall_s += median(wall[row]);
    }
    setup_s *= factor;
    wall_s *= factor;
    return Metrics{{"wall_s", wall_s},
                   {"setup_s", setup_s},
                   {"sims_per_s", double(rows) / (setup_s + wall_s)},
                   {"peak_rss_mb", peakRssMb()}};
}

/** Bin holding the median sample of a log2 histogram. */
double
histMedianBin(const std::array<uint64_t, 32> &hist)
{
    uint64_t total = 0;
    for (uint64_t c : hist)
        total += c;
    uint64_t seen = 0;
    for (size_t b = 0; b < hist.size(); ++b) {
        seen += hist[b];
        if (total > 0 && 2 * seen >= total)
            return double(b);
    }
    return 0.0;
}

/**
 * One traced pass: the grid through runBatch (the sweep layer and the
 * reference results), then every row on the hand-built stack: plain,
 * plain without the tracer (when the config traces) and probed.
 */
Metrics
tracedPass(Run &run, int pass, bool *self_time_ok)
{
    sweep::SweepSpec spec = sweep::SweepSpec::fromJson(run.spec(run.seed));
    sweep::BatchOptions opts;
    opts.threads = 1;
    sweep::BatchOutcome out = sweep::runBatch(spec, opts);
    run.dropTraceFile();
    std::vector<double> row_wall;
    double row_wall_sum = 0.0;
    for (size_t i = 0; i < out.results.size(); ++i) {
        const sweep::SweepResult &r = out.results[i];
        if (r.failed) {
            run.rec.error("batch", run.seeded(), i, pass, r.error);
            continue;
        }
        run.rec.ok("batch", run.seeded(), i, pass, resultOf(r.report));
        row_wall.push_back(r.report.wallSeconds);
        row_wall_sum += r.report.wallSeconds;
    }

    Metrics m;
    m["sweep.row_wall_p50_s"] = median(row_wall);
    m["sweep.row_wall_max_s"] =
        row_wall.empty() ? 0.0
                         : *std::max_element(row_wall.begin(),
                                             row_wall.end());
    m["sweep.overhead_s"] = out.wallSeconds - row_wall_sum;

    double plain_run = 0.0;
    std::array<uint64_t, 32> depth{};
    for (size_t i = 0; i < spec.configCount(); ++i) {
        try {
            int64_t t = nowNs();
            sweep::MaterializedConfig mat =
                sweep::materializeConfig(spec.config(i).doc);
            m["setup.materialize_s"] += secondsSince(t);

            StackRun plain = runStack(mat, {false, true, run.traceFile});
            run.rec.ok("plain", run.seeded(), i, pass, plain.sim);
            plain_run += plain.runS;
            m["setup.construct_s"] += plain.constructS;
            m["workload.engine_build_s"] += plain.engineBuildS;
            m["trace.events"] += double(plain.traceEvents);
            m["trace.export_s"] += plain.exportS;
            m["trace.file_bytes"] += double(plain.traceFileBytes);
            double record_s = 0.0;
            if (mat.cfg.trace.enabled()) {
                StackRun untraced = runStack(mat, {false, false, ""});
                run.rec.ok("untraced", run.seeded(), i, pass, untraced.sim);
                record_s = plain.runS - untraced.runS;
            }
            m["trace.record_s"] += record_s;

            StackRun p = runStack(mat, {true, true, run.traceFile});
            run.rec.ok("probe", run.seeded(), i, pass, p.sim);
            double residual =
                p.runS - p.sendS - p.collHandlerS - p.p2pHandlerS;
            *self_time_ok = *self_time_ok && residual >= 0.0;
            m["event.events"] += double(p.sim.events);
            m["event.run_s"] += p.runS;
            m["event.bucket_activations"] += double(p.bucketActivations);
            m["event.residual_s"] += residual;
            for (size_t b = 0; b < depth.size(); ++b)
                depth[b] += p.depthHist[b];
            m["network.sends"] += double(p.sends);
            m["network.recvs"] += double(p.recvs);
            m["network.send_s"] += p.sendS;
            m["network.bytes"] += p.networkBytes;
            m["network.footprint_bytes"] = std::max(
                m["network.footprint_bytes"], double(p.networkFootprint));
            m["network.flow_solves"] += double(p.flowSolves);
            m["network.flows_touched"] += double(p.flowsTouched);
            m["collective.handler_s"] += p.collHandlerS;
            m["collective.instances"] += double(p.collInstances);
            m["collective.footprint_bytes"] =
                std::max(m["collective.footprint_bytes"],
                         double(p.collFootprint));
            m["workload.nodes"] += double(p.nodes);
            m["workload.p2p_handler_s"] += p.p2pHandlerS;
        } catch (const std::exception &e) {
            run.rec.error("probe", run.seeded(), i, pass, e.what());
        }
        run.dropTraceFile();
    }
    m["event.events_per_s"] =
        m["event.run_s"] > 0.0 ? m["event.events"] / m["event.run_s"] : 0.0;
    m["event.depth_p50_log2"] = histMedianBin(depth);
    m["bench.probe_overhead_frac"] =
        plain_run > 0.0 ? m["event.run_s"] / plain_run - 1.0 : 0.0;
    return m;
}

/** Per-layer metrics: traced passes for `seconds` (at least one);
 *  each metric is the median over passes. */
Metrics
perLayer(Run &run, bool *self_time_ok)
{
    std::vector<Metrics> passes;
    repeatFor(run.seconds, 1, [&](int pass) {
        passes.push_back(tracedPass(run, pass, self_time_ok));
    });
    Metrics out;
    for (const auto &[name, value] : passes.front()) {
        (void)value;
        std::vector<double> v;
        for (Metrics &p : passes)
            v.push_back(p[name]);
        out[name] = median(v);
    }
    return out;
}

const char *
argValue(int argc, char **argv, const char *flag)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::string(argv[i]) == flag)
            return argv[i + 1];
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
        std::fprintf(stderr,
                     "perfbench: refusing a %s build; configure with "
                     "-DCMAKE_BUILD_TYPE=Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }
    const char *workload = argValue(argc, argv, "--workload");
    const char *seed = argValue(argc, argv, "--seed");
    const char *seconds = argValue(argc, argv, "--seconds");
    const char *trace = argValue(argc, argv, "--trace");
    const char *scratch = argValue(argc, argv, "--scratch");
    if (!workload || !seed || !seconds || !trace || !scratch) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME --seed N --seconds S "
                     "--trace 0|1 --scratch DIR\n",
                     argv[0]);
        return 2;
    }
    try {
        workloadSpec(workload, kDefaultSeed, "");
    } catch (const FatalError &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    setLogLevel(LogLevel::Warn);

    Run run;
    run.workload = workload;
    run.seed = std::strtoull(seed, nullptr, 10);
    run.seconds = std::atof(seconds);
    run.trace = std::string(trace) == "1";
    run.traceFile = std::string(scratch) + "/trace-" +
                    std::to_string(getpid()) + ".json";

    runGate(run);
    bool self_time_ok = true;
    Metrics metrics;
    if (run.trace)
        metrics = perLayer(run, &self_time_ok);
    else
        metrics = endToEnd(run);

    json::Object host;
    host["build_type"] = json::Value(PERFBENCH_BUILD_TYPE);
    host["compiler"] = json::Value(__VERSION__);
    host["nproc"] = json::Value(int(std::thread::hardware_concurrency()));
    json::Object checks;
    checks["self_time_within_run"] = json::Value(self_time_ok);
    json::Object m;
    for (const auto &[name, value] : metrics)
        m[name] = json::Value(value);
    json::Object samples;
    for (const auto &[name, values] : run.samples) {
        json::Array a;
        for (double v : values)
            a.push_back(json::Value(v));
        samples[name] = json::Value(std::move(a));
    }
    json::Object out;
    out["workload"] = json::Value(run.workload);
    out["seed"] = json::Value(run.seed);
    out["trace"] = json::Value(run.trace);
    out["host"] = json::Value(std::move(host));
    out["sims"] = json::Value(run.rec.take());
    out["checks"] = json::Value(std::move(checks));
    out["metrics"] = json::Value(std::move(m));
    out["samples"] = json::Value(std::move(samples));
    std::printf("%s\n", json::Value(std::move(out)).dump().c_str());
    return 0;
}
