#include "workload/builders.h"

#include <array>
#include <atomic>

#include "common/logging.h"

namespace astra {

uint64_t
freshCommKey()
{
    // Keys must survive a JSON round trip (numbers are doubles), so
    // stay well below 2^53.
    static std::atomic<uint64_t> counter{0};
    return ++counter;
}

ParallelMapping
mapHybrid(const Topology &topo, int mp, int dp)
{
    ASTRA_USER_CHECK(mp >= 1 && dp >= 1,
                     "parallel degrees must be positive (mp=%d dp=%d)",
                     mp, dp);
    ASTRA_USER_CHECK(mp * dp == topo.npus(),
                     "mp(%d) x dp(%d) != %d NPUs", mp, dp, topo.npus());

    ParallelMapping map;
    map.mp = mp;
    map.dp = dp;
    int remaining_mp = mp;
    for (int d = 0; d < topo.numDims(); ++d) {
        int k = topo.dim(d).size;
        if (k < 2)
            continue;
        if (remaining_mp > 1) {
            if (remaining_mp >= k) {
                ASTRA_USER_CHECK(remaining_mp % k == 0,
                                 "mp=%d does not factor over dim %d "
                                 "(size %d)",
                                 mp, d + 1, k);
                map.mpGroups.push_back(
                    topo.normalizeGroup(GroupDim{d, k, 1}));
                remaining_mp /= k;
            } else {
                // Split this dimension: MP takes the inner factor,
                // DP the outer strided factor (e.g. on a 1-D wafer).
                ASTRA_USER_CHECK(k % remaining_mp == 0,
                                 "mp=%d does not divide dim %d (size %d)",
                                 mp, d + 1, k);
                map.mpGroups.push_back(
                    topo.normalizeGroup(GroupDim{d, remaining_mp, 1}));
                int rest = k / remaining_mp;
                if (rest > 1) {
                    map.dpGroups.push_back(topo.normalizeGroup(
                        GroupDim{d, rest, remaining_mp}));
                }
                remaining_mp = 1;
            }
        } else {
            map.dpGroups.push_back(
                topo.normalizeGroup(GroupDim{d, k, 1}));
        }
    }
    ASTRA_USER_CHECK(remaining_mp == 1,
                     "mp=%d exceeds the topology size", mp);
    return map;
}

namespace {

/** SPMD helper: builds one graph template and replicates it per NPU.
 *  Nodes are returned as positions, which is what dependencies name. */
class SpmdBuilder
{
  public:
    using Deps = std::vector<uint32_t>;

    uint32_t
    addCompute(std::string_view name, Flops flops, Bytes bytes,
               const Deps &deps)
    {
        return add(name, EtNode::compute(flops, bytes), deps);
    }

    uint32_t
    addCollective(std::string_view name, CollectiveType type, Bytes bytes,
                  const std::vector<GroupDim> &groups, const Deps &deps)
    {
        return add(name,
                   EtNode::collective(type, bytes, freshCommKey(),
                                      wl_.internGroups(groups)),
                   deps);
    }

    uint32_t
    addMemory(std::string_view name, MemLocation loc, MemOp op,
              Bytes bytes, bool fused, const Deps &deps)
    {
        return add(name, EtNode::memory(loc, op, bytes, fused), deps);
    }

    Workload
    replicate(std::string name, int npus) &&
    {
        wl_.name = std::move(name);
        wl_.graphs.reserve(static_cast<size_t>(npus));
        for (NpuId n = 0; n < npus; ++n) {
            EtGraph g;
            g.npu = n;
            g.nodes = graph_.nodes;
            g.deps = graph_.deps;
            wl_.graphs.push_back(std::move(g));
        }
        return std::move(wl_);
    }

  private:
    uint32_t
    add(std::string_view name, EtNode node, const Deps &deps)
    {
        node.name = wl_.internName(name);
        return graph_.add(node, deps);
    }

    Workload wl_;   //!< name and group tables; graphs come last.
    EtGraph graph_; //!< the template.
};

using Deps = SpmdBuilder::Deps;

} // namespace

Workload
buildHybridTransformer(const Topology &topo, const ModelDesc &model,
                       const HybridOptions &opts)
{
    ASTRA_USER_CHECK(opts.iterations >= 1, "iterations must be >= 1");
    int mp = opts.mp;
    int dp = topo.npus() / mp;
    ParallelMapping map = mapHybrid(topo, mp, dp);

    int layers = opts.simLayers > 0 ? opts.simLayers
                                    : model.effectiveLayers();
    double params_per_layer = model.params / layers;
    double tokens = double(model.tokensPerBatch);
    // Graph coarsening merges `merge` real layers into one node; all
    // per-layer volumes (FLOPs via params_per_layer, activations,
    // weight gradients) scale by the same factor so aggregate totals
    // are preserved.
    double merge = double(model.layers) / double(layers);
    // Megatron-style sharded matmuls: forward multiplies every token
    // by this NPU's parameter shard.
    Flops fwd_flops = 2.0 * (params_per_layer / mp) * tokens;
    Bytes act_bytes =
        tokens * model.hidden * model.bytesPerParam * merge;
    Bytes layer_weight_bytes =
        params_per_layer * model.bytesPerParam / mp;
    Bytes wgrad_bytes = layer_weight_bytes;

    SpmdBuilder b;
    int prev = -1;
    auto chain = [&](uint32_t id) {
        prev = int(id);
        return id;
    };
    auto deps_of = [&]() {
        return prev >= 0 ? Deps{uint32_t(prev)} : Deps{};
    };

    for (int it = 0; it < opts.iterations; ++it) {
        Deps iteration_tail;
        // Forward pass. Megatron-style tensor parallelism reduces
        // activations twice per layer (after the attention block and
        // after the MLP block).
        for (int l = 0; l < layers; ++l) {
            std::string tag =
                "it" + std::to_string(it) + ".l" + std::to_string(l);
            chain(b.addCompute(tag + ".attn_fwd", 0.5 * fwd_flops,
                               act_bytes + 0.5 * layer_weight_bytes,
                               deps_of()));
            if (mp > 1) {
                chain(b.addCollective(tag + ".attn_fwd_ar",
                                      CollectiveType::AllReduce,
                                      act_bytes, map.mpGroups,
                                      deps_of()));
            }
            chain(b.addCompute(tag + ".mlp_fwd", 0.5 * fwd_flops,
                               act_bytes + 0.5 * layer_weight_bytes,
                               deps_of()));
            if (mp > 1) {
                chain(b.addCollective(tag + ".mlp_fwd_ar",
                                      CollectiveType::AllReduce,
                                      act_bytes, map.mpGroups,
                                      deps_of()));
            }
        }
        // Backward pass; weight-gradient all-reduces overlap the
        // remaining backward computes (they only gate the optimizer).
        for (int l = layers - 1; l >= 0; --l) {
            std::string tag =
                "it" + std::to_string(it) + ".l" + std::to_string(l);
            chain(b.addCompute(tag + ".mlp_bwd", fwd_flops,
                               act_bytes + 0.5 * layer_weight_bytes,
                               deps_of()));
            if (mp > 1) {
                chain(b.addCollective(tag + ".mlp_bwd_ar",
                                      CollectiveType::AllReduce,
                                      act_bytes, map.mpGroups,
                                      deps_of()));
            }
            uint32_t bwd = chain(b.addCompute(tag + ".attn_bwd", fwd_flops,
                                         act_bytes +
                                             0.5 * layer_weight_bytes,
                                         deps_of()));
            if (mp > 1) {
                chain(b.addCollective(tag + ".attn_bwd_ar",
                                      CollectiveType::AllReduce,
                                      act_bytes, map.mpGroups,
                                      deps_of()));
            }
            if (dp > 1) {
                iteration_tail.push_back(b.addCollective(
                    tag + ".wgrad_ar", CollectiveType::AllReduce,
                    wgrad_bytes, map.dpGroups, {bwd}));
            }
        }
        // Optimizer step: waits for the backward chain and all
        // outstanding weight-gradient all-reduces.
        iteration_tail.push_back(uint32_t(prev));
        chain(b.addCompute("it" + std::to_string(it) + ".opt",
                           2.0 * model.params / mp,
                           2.0 * model.params * model.bytesPerParam / mp,
                           iteration_tail));
    }

    return std::move(b).replicate(model.name + "-hybrid-mp" +
                                      std::to_string(mp) + "-dp" +
                                      std::to_string(dp),
                                  topo.npus());
}

Workload
buildDlrm(const Topology &topo, const ModelDesc &model,
          const DlrmOptions &opts)
{
    ASTRA_USER_CHECK(model.embeddingExchangeBytes > 0.0,
                     "DLRM model needs embeddingExchangeBytes");
    int layers = model.effectiveLayers();
    double params_per_layer = model.params / layers;
    double samples = double(model.tokensPerBatch);
    Flops mlp_flops = 2.0 * params_per_layer * samples;
    Bytes act_bytes = samples * model.hidden * model.bytesPerParam;

    SpmdBuilder b;
    int prev = -1;
    auto chain = [&](uint32_t id) {
        prev = int(id);
        return id;
    };
    auto deps_of = [&]() {
        return prev >= 0 ? Deps{uint32_t(prev)} : Deps{};
    };

    for (int it = 0; it < opts.iterations; ++it) {
        std::string pre = "it" + std::to_string(it) + ".";
        // Embedding lookups exchanged across every NPU (model-parallel
        // embedding tables).
        chain(b.addCollective(pre + "emb_fwd_a2a",
                              CollectiveType::AllToAll,
                              model.embeddingExchangeBytes, {},
                              deps_of()));
        for (int l = 0; l < layers; ++l)
            chain(b.addCompute(pre + "mlp" + std::to_string(l) + ".fwd",
                               mlp_flops, act_bytes, deps_of()));
        for (int l = layers - 1; l >= 0; --l)
            chain(b.addCompute(pre + "mlp" + std::to_string(l) + ".bwd",
                               2.0 * mlp_flops, act_bytes, deps_of()));
        uint32_t bwd_tail = uint32_t(prev);
        uint32_t a2a = b.addCollective(pre + "emb_bwd_a2a",
                                  CollectiveType::AllToAll,
                                  model.embeddingExchangeBytes, {},
                                  {bwd_tail});
        // Data-parallel MLP gradient synchronization across all NPUs.
        uint32_t wgrad = b.addCollective(
            pre + "mlp_wgrad_ar", CollectiveType::AllReduce,
            model.params * model.bytesPerParam, {}, {bwd_tail});
        chain(b.addCompute(pre + "opt", 2.0 * model.params,
                           2.0 * model.params * model.bytesPerParam,
                           {a2a, wgrad}));
    }
    return std::move(b).replicate(model.name + "-dlrm", topo.npus());
}

Workload
buildSingleCollective(const Topology &topo, CollectiveType type,
                      Bytes bytes)
{
    SpmdBuilder b;
    b.addCollective(std::string(collectiveName(type)), type, bytes, {},
                    {});
    return std::move(b).replicate(
        std::string("single-") + collectiveName(type), topo.npus());
}

Workload
buildPipelineParallel(const Topology &topo, const ModelDesc &model,
                      const PipelineOptions &opts)
{
    ASTRA_USER_CHECK(opts.microbatches >= 1,
                     "pipeline needs at least one micro-batch");
    int stages = topo.npus();
    int micro = opts.microbatches;
    double params_per_stage = model.params / stages;
    double tokens_per_micro =
        double(model.tokensPerBatch) / double(micro);
    Flops fwd_flops = 2.0 * params_per_stage * tokens_per_micro;
    Bytes act_bytes =
        tokens_per_micro * model.hidden * model.bytesPerParam;

    // Tags identify (iteration, micro-batch, direction).
    auto tag_of = [](int it, int m, bool fwd) {
        return (static_cast<uint64_t>(it) << 24) |
               (static_cast<uint64_t>(m) << 1) | (fwd ? 1u : 0u);
    };

    Workload wl;
    wl.name = model.name + "-pipeline-" + std::to_string(stages) + "s" +
              std::to_string(micro) + "m";
    // Node names depend only on (phase, micro-batch): intern each once.
    enum Phase { kFwdRecv, kFwd, kFwdSend, kBwdRecv, kBwd, kBwdSend };
    const char *const phase_names[] = {"fwd_recv", "fwd", "fwd_send",
                                       "bwd_recv", "bwd", "bwd_send"};
    std::vector<std::array<uint32_t, 6>> names(static_cast<size_t>(micro));
    for (int m = 0; m < micro; ++m)
        for (int p = 0; p < 6; ++p)
            names[size_t(m)][size_t(p)] = wl.internName(
                std::string(phase_names[p]) + ".m" + std::to_string(m));

    wl.graphs.reserve(static_cast<size_t>(stages));
    for (NpuId s = 0; s < stages; ++s) {
        EtGraph g;
        g.npu = s;
        // Every stage is one chain: size the arrays exactly.
        const bool first = s == 0, last = s == stages - 1;
        size_t count = size_t(opts.iterations) * size_t(micro) *
                       (2 + 2 * size_t(!first) + 2 * size_t(!last));
        g.nodes.reserve(count);
        g.deps.reserve(count > 0 ? count - 1 : 0);
        auto add = [&](EtNode n, int m, Phase p) {
            n.name = names[size_t(m)][size_t(p)];
            if (g.nodes.empty())
                g.add(n);
            else
                g.add(n, {uint32_t(g.nodes.size() - 1)});
        };

        for (int it = 0; it < opts.iterations; ++it) {
            // GPipe schedule: all forward micro-batches, then all
            // backward micro-batches in reverse.
            for (int m = 0; m < micro; ++m) {
                if (!first)
                    add(EtNode::recv(s - 1, tag_of(it, m, true)), m,
                        kFwdRecv);
                add(EtNode::compute(fwd_flops, act_bytes), m, kFwd);
                if (!last)
                    add(EtNode::send(s + 1, act_bytes, tag_of(it, m, true)),
                        m, kFwdSend);
            }
            for (int m = micro - 1; m >= 0; --m) {
                if (!last)
                    add(EtNode::recv(s + 1, tag_of(it, m, false)), m,
                        kBwdRecv);
                add(EtNode::compute(2.0 * fwd_flops, act_bytes), m, kBwd);
                if (!first)
                    add(EtNode::send(s - 1, act_bytes,
                                     tag_of(it, m, false)),
                        m, kBwdSend);
            }
        }
        wl.graphs.push_back(std::move(g));
    }
    return wl;
}

Workload
buildMoEDisaggregated(const Topology &topo, const ModelDesc &model,
                      const MoEOptions &opts)
{
    int layers =
        opts.simLayers > 0 ? opts.simLayers : model.effectiveLayers();
    double params_per_layer = model.params / layers;
    Bytes layer_bytes = params_per_layer * model.bytesPerParam;
    Bytes shard_bytes = layer_bytes / topo.npus();
    double tokens = double(model.tokensPerBatch);
    Flops layer_flops =
        2.0 * (model.params * model.activeParamFraction / layers) *
        tokens / topo.npus();
    Bytes a2a_bytes = tokens * model.hidden * model.bytesPerParam /
                      topo.npus();
    bool fused = opts.path == ParamPath::FusedInSwitch;

    SpmdBuilder b;
    int prev = -1;
    auto chain = [&](uint32_t id) {
        prev = int(id);
        return id;
    };
    auto deps_of = [&]() {
        return prev >= 0 ? Deps{uint32_t(prev)} : Deps{};
    };

    for (int it = 0; it < opts.iterations; ++it) {
        // Fused mode prefetches: gather-on-load nodes depend only on
        // the previous load (the DMA queue serializes them), so the
        // fabric streams the next layer's parameters while the NPUs
        // route tokens and compute. This is the "hide communication
        // time" configuration of §V-B; the network-collective path
        // keeps ZeRO-Infinity's serial fetch semantics.
        int prev_load = -1;
        Deps fwd_loads(static_cast<size_t>(layers));
        if (fused) {
            for (int l = 0; l < layers; ++l) {
                std::string tag = "it" + std::to_string(it) + ".l" +
                                  std::to_string(l);
                Deps deps;
                if (prev_load >= 0)
                    deps.push_back(uint32_t(prev_load));
                prev_load = int(b.addMemory(
                    tag + ".param_gather_load", MemLocation::Remote,
                    MemOp::Load, shard_bytes, true, deps));
                fwd_loads[static_cast<size_t>(l)] = uint32_t(prev_load);
            }
        }
        for (int l = 0; l < layers; ++l) {
            std::string tag =
                "it" + std::to_string(it) + ".l" + std::to_string(l);
            // Parameters live in the remote pool, ZeRO-sharded.
            if (fused) {
                Deps deps = deps_of();
                deps.push_back(fwd_loads[static_cast<size_t>(l)]);
                chain(b.addCollective(tag + ".a2a_fwd",
                                      CollectiveType::AllToAll,
                                      a2a_bytes, {}, deps));
            } else {
                chain(b.addMemory(tag + ".param_shard_load",
                                  MemLocation::Remote, MemOp::Load,
                                  shard_bytes, false, deps_of()));
                chain(b.addCollective(tag + ".param_ag",
                                      CollectiveType::AllGather,
                                      layer_bytes, {}, deps_of()));
                chain(b.addCollective(tag + ".a2a_fwd",
                                      CollectiveType::AllToAll,
                                      a2a_bytes, {}, deps_of()));
            }
            // Expert FFN + return routing.
            chain(b.addCompute(tag + ".fwd", layer_flops,
                               a2a_bytes + shard_bytes, deps_of()));
            chain(b.addCollective(tag + ".a2a_fwd_ret",
                                  CollectiveType::AllToAll, a2a_bytes,
                                  {}, deps_of()));
        }
        Deps iteration_tail;
        for (int l = layers - 1; l >= 0; --l) {
            std::string tag =
                "it" + std::to_string(it) + ".l" + std::to_string(l);
            chain(b.addCollective(tag + ".a2a_bwd",
                                  CollectiveType::AllToAll, a2a_bytes,
                                  {}, deps_of()));
            uint32_t bwd = chain(b.addCompute(tag + ".bwd", 2.0 * layer_flops,
                                         a2a_bytes + shard_bytes,
                                         deps_of()));
            chain(b.addCollective(tag + ".a2a_bwd_ret",
                                  CollectiveType::AllToAll, a2a_bytes,
                                  {}, deps_of()));
            // Gradient reduction back into the sharded optimizer.
            uint32_t store;
            if (fused) {
                // Scatter-on-store off the critical chain: the fabric
                // drains gradients while earlier layers keep running.
                store = b.addMemory(tag + ".grad_scatter_store",
                                    MemLocation::Remote, MemOp::Store,
                                    shard_bytes, true, {bwd});
            } else {
                uint32_t rs = chain(b.addCollective(
                    tag + ".grad_rs", CollectiveType::ReduceScatter,
                    layer_bytes, {}, deps_of()));
                store = b.addMemory(tag + ".grad_shard_store",
                                    MemLocation::Remote, MemOp::Store,
                                    shard_bytes, false, {rs});
                chain(store);
            }
            // Local optimizer math on the shard.
            iteration_tail.push_back(b.addCompute(
                tag + ".opt", 4.0 * params_per_layer / topo.npus(),
                2.0 * shard_bytes, {store}));
        }
        // Next iteration starts after every optimizer shard landed.
        iteration_tail.push_back(uint32_t(prev));
        chain(b.addCompute("it" + std::to_string(it) + ".sync", 0.0, 0.0,
                           iteration_tail));
    }
    return std::move(b).replicate(
        model.name + (fused ? "-fused" : "-netcoll"), topo.npus());
}

} // namespace astra
