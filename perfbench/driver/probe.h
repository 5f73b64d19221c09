/**
 * @file
 * Outside-in per-layer timing for the benchmark's traced run.
 *
 * The simulator is assembled here from its public constructors, the
 * same stack Simulator builds (EventQueue, makeNetwork,
 * CollectiveEngine, MemoryModel, Sys, ExecutionEngine, trace::Tracer).
 * Between the collective engine and the backend sits ProbeNetwork, a
 * forwarding NetworkApi decorator in the style of
 * cluster::RankViewNetwork: it times every simSend/simRecv call into
 * the backend and wraps the completion handlers it forwards so their
 * execution is timed too. It schedules no events of its own, so a
 * probed run must reproduce the plain run's simulated results bit for
 * bit (the benchmark checks this).
 *
 * Times are host time from std::chrono::steady_clock. Nested spans
 * are accounted as self time: a handler that issues sends is charged
 * its duration minus the time spent inside those sends.
 */
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "network/network_api.h"
#include "sweep/spec.h"

namespace perfbench {

/** Layers a ProbeNetwork attributes self time to. */
enum Layer {
    kSend,        //!< inside the backend's simSend / simRecv.
    kCollHandler, //!< handlers of kNoTag (collective-engine) messages.
    kP2pHandler,  //!< handlers of tagged (workload send/recv) messages.
    kNumLayers,
};

/** Monotonic host clock in nanoseconds. */
int64_t nowNs();

/** Stack-based self-time accounting; see file comment. */
class LayerClock
{
  public:
    void
    enter()
    {
        stack_.push_back(Frame{nowNs(), 0});
    }

    void
    exit(Layer layer)
    {
        Frame f = stack_.back();
        stack_.pop_back();
        int64_t dur = nowNs() - f.start;
        self_[layer] += dur - f.child;
        if (!stack_.empty())
            stack_.back().child += dur;
    }

    double seconds(Layer layer) const { return double(self_[layer]) * 1e-9; }

  private:
    struct Frame
    {
        int64_t start;
        int64_t child;
    };
    std::vector<Frame> stack_;
    std::array<int64_t, kNumLayers> self_{};
};

/** Forwarding, timing NetworkApi decorator; see file comment. */
class ProbeNetwork : public astra::NetworkApi
{
  public:
    ProbeNetwork(astra::NetworkApi &backend, LayerClock &clock);

    void simSend(astra::NpuId src, astra::NpuId dst, astra::Bytes bytes,
                 int dim, uint64_t tag,
                 astra::SendHandlers handlers) override;
    void simRecv(astra::NpuId dst, astra::NpuId src, uint64_t tag,
                 astra::EventCallback cb) override;

    uint64_t sends() const { return sends_; }
    uint64_t recvs() const { return recvs_; }

  private:
    astra::EventCallback wrap(astra::EventCallback cb, Layer layer);

    astra::NetworkApi &backend_;
    LayerClock &clock_;
    uint64_t sends_ = 0;
    uint64_t recvs_ = 0;
};

/** What one hand-built stack run should do. */
struct StackOptions
{
    bool probe = false;  //!< insert ProbeNetwork + a QueueProfile.
    bool tracer = false; //!< honour the config's trace block.
    /** Chrome trace output path when `tracer` is set ("" = none). */
    std::string traceFile;
};

/** Simulated results: what the correctness gate compares exactly. */
struct SimResult
{
    double totalTimeNs = 0.0;
    uint64_t events = 0;
    uint64_t messages = 0;
};

/** Everything one stack run measured. */
struct StackRun
{
    SimResult sim;
    double constructS = 0.0;   //!< backend + engines + memory + Sys.
    double engineBuildS = 0.0; //!< ExecutionEngine constructor.
    double runS = 0.0;         //!< EventQueue::run.
    double exportS = 0.0;      //!< Tracer::writeOutputs.
    // Probe layers (zero unless StackOptions::probe).
    double sendS = 0.0;
    double collHandlerS = 0.0;
    double p2pHandlerS = 0.0;
    uint64_t sends = 0;
    uint64_t recvs = 0;
    uint64_t bucketActivations = 0;
    std::array<uint64_t, 32> depthHist{};
    // Deterministic layer counters.
    double networkBytes = 0.0;
    uint64_t networkFootprint = 0;
    uint64_t flowSolves = 0;
    uint64_t flowsTouched = 0;
    uint64_t collInstances = 0;
    uint64_t collFootprint = 0;
    uint64_t nodes = 0;
    uint64_t traceEvents = 0;
    uint64_t traceFileBytes = 0;
};

/**
 * Build the stack for `mat` from public constructors and run it to
 * completion; fatal() (FatalError) if the workload does not finish.
 * The trace file, if any, is written, measured and deleted.
 */
StackRun runStack(const astra::sweep::MaterializedConfig &mat,
                  const StackOptions &opt);

} // namespace perfbench

#endif // PERFBENCH_PROBE_H_
