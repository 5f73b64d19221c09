#include "workload/engine.h"

#include <utility>

#include "common/logging.h"
#include "trace/tracer.h"

namespace astra {

ExecutionEngine::ExecutionEngine(std::vector<std::unique_ptr<Sys>> &sys,
                                 const Workload &wl,
                                 const std::vector<uint8_t> *initial_done)
    : sys_(sys), wl_(wl)
{
    ASTRA_ASSERT(sys_.size() == wl_.graphs.size(),
                 "engine needs one Sys per graph (%zu vs %zu)",
                 sys_.size(), wl_.graphs.size());
    total_ = wl_.totalNodes();

    nodeBase_.resize(wl_.graphs.size());
    size_t base = 0;
    for (size_t n = 0; n < wl_.graphs.size(); ++n) {
        nodeBase_[n] = base;
        base += wl_.graphs[n].nodes.size();
    }
    ASTRA_ASSERT(base == total_, "arena size mismatch");

    // One child CSR across all graphs: each graph's rows continue
    // where the previous graph's ended, so its last row start is the
    // next graph's first.
    size_t edges = 0;
    for (const EtGraph &g : wl_.graphs)
        edges += g.deps.size();
    indegree_.resize(total_);
    childStart_.assign(total_ + 1, 0);
    children_.resize(edges);
    uint32_t edge_base = 0;
    for (size_t n = 0; n < wl_.graphs.size(); ++n) {
        const EtGraph &g = wl_.graphs[n];
        for (size_t i = 0; i < g.nodes.size(); ++i)
            indegree_[nodeBase_[n] + i] = int(g.depsOf(i).size());
        g.childCsr(edge_base, &childStart_[nodeBase_[n]],
                   children_.data() + edge_base);
        edge_base += uint32_t(g.deps.size());
    }

    done_.assign(total_, 0);
    if (initial_done != nullptr) {
        // Checkpoint-restart: replay a completion snapshot. Done nodes
        // are counted complete and their out-edges released, so
        // start() seeds exactly the frontier the snapshot left ready.
        ASTRA_ASSERT(initial_done->size() == total_,
                     "completion snapshot size %zu does not match "
                     "workload (%zu nodes)", initial_done->size(),
                     total_);
        for (size_t n = 0; n < wl_.graphs.size(); ++n) {
            size_t base = nodeBase_[n];
            size_t count = wl_.graphs[n].nodes.size();
            for (size_t i = 0; i < count; ++i) {
                size_t flat = base + i;
                if (!(*initial_done)[flat])
                    continue;
                done_[flat] = 1;
                ++completed_;
                for (uint32_t c = childStart_[flat];
                     c < childStart_[flat + 1]; ++c)
                    --indegree_[base + children_[c]];
            }
        }
    }
}

void
ExecutionEngine::start()
{
    for (size_t n = 0; n < wl_.graphs.size(); ++n)
        for (size_t i = 0; i < wl_.graphs[n].nodes.size(); ++i)
            if (indegree_[nodeBase_[n] + i] == 0 &&
                !done_[nodeBase_[n] + i])
                issue(static_cast<NpuId>(n), i);
}

void
ExecutionEngine::setTracer(trace::Tracer *tracer, int32_t pid)
{
    tracer_ = tracer;
    tracePid_ = pid;
    traceNames_.clear();
    issuedAt_.clear();
    if (!tracer_)
        return;
    issuedAt_.assign(total_, 0.0);
    // Span labels: the node's name, or its type for unnamed nodes
    // (name id 0), interned into the tracer once per workload name.
    traceNames_.resize(wl_.nameCount());
    for (size_t id = 1; id < wl_.nameCount(); ++id)
        traceNames_[id] = tracer_->internName(wl_.nameOf(uint32_t(id)));
    for (NodeType t : {NodeType::Compute, NodeType::Memory,
                       NodeType::CommColl, NodeType::CommSend,
                       NodeType::CommRecv})
        traceTypeNames_[size_t(t)] = tracer_->internName(nodeTypeName(t));
}

void
ExecutionEngine::issue(NpuId npu, size_t index)
{
    const EtNode &node = wl_.graphs[static_cast<size_t>(npu)].nodes[index];
    Sys &sys = *sys_[static_cast<size_t>(npu)];
    EventCallback done = [this, npu, index] { onDone(npu, index); };

    if (tracer_)
        issuedAt_[flatIndex(npu, index)] = sys.eventQueue().now();

    switch (node.type) {
      case NodeType::Compute:
        sys.issueCompute(node.flops, node.bytes, std::move(done));
        break;
      case NodeType::Memory:
        sys.issueMemory(node.location, node.memOp, node.bytes, node.fused,
                        std::move(done));
        break;
      case NodeType::CommColl: {
        CollectiveRequest req;
        req.type = node.coll;
        req.bytes = node.bytes;
        std::span<const GroupDim> groups = wl_.groupsOf(node.groups);
        req.groups.assign(groups.begin(), groups.end());
        req.chunks = 0; // filled from the SysConfig default.
        sys.issueCollective(node.key, req, std::move(done));
        break;
      }
      case NodeType::CommSend:
        sys.issueSend(node.peer, node.bytes, node.key, std::move(done));
        break;
      case NodeType::CommRecv:
        sys.issueRecv(node.peer, node.key, std::move(done));
        break;
    }
}

void
ExecutionEngine::onDone(NpuId npu, size_t index)
{
    if (cancelled_)
        return; // abandoned incarnation; stale completions are inert.
    ++completed_;
    size_t flat = flatIndex(npu, index);
    done_[flat] = 1;
    if (tracer_) {
        const EtNode &node =
            wl_.graphs[static_cast<size_t>(npu)].nodes[index];
        TimeNs now = sys_[static_cast<size_t>(npu)]->eventQueue().now();
        tracer_->spanName(tracePid_, int32_t(npu), nodeTypeName(node.type),
                          node.name ? traceNames_[node.name]
                                    : traceTypeNames_[size_t(node.type)],
                          issuedAt_[flat], now - issuedAt_[flat]);
    }
    size_t base = nodeBase_[static_cast<size_t>(npu)];
    for (uint32_t c = childStart_[flat]; c < childStart_[flat + 1]; ++c) {
        uint32_t child = children_[c];
        if (--indegree_[base + child] == 0)
            issue(npu, child);
    }
    if (completed_ == total_ && onFinished_)
        onFinished_();
}

TimeNs
ExecutionEngine::run()
{
    ASTRA_ASSERT(!sys_.empty(), "engine has no system layers");
    start();
    EventQueue &eq = sys_[0]->eventQueue();
    eq.run();
    ASTRA_USER_CHECK(finished(),
                     "workload '%s' deadlocked: %zu of %zu nodes "
                     "completed (check send/recv pairing and collective "
                     "group membership); %s",
                     wl_.name.c_str(), completed_, total_,
                     sys_[0]->network().danglingSummary().c_str());
    return eq.now();
}

} // namespace astra
