/**
 * @file
 * Model graph implementation.
 */

#include "nn/model.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

#include "common/logging.hh"
#include "common/mutex.hh"
#include "common/thread_annotations.hh"
#include "nn/kernel_gen.hh"
#include "sim/timing_cache.hh"

namespace seqpoint {
namespace nn {

/** The op table and the per-(batch, SL, phase) program memo. */
struct Model::ProgramMemo {
    static constexpr uint32_t kFree = UINT32_MAX;

    Mutex mu;
    /** Interned unresolved ops, indexed by op id (repeat 1). */
    std::vector<sim::KernelDesc> ops SEQ_GUARDED_BY(mu);
    /** Each op's signature hash, indexed by op id. */
    std::vector<std::size_t> opHash SEQ_GUARDED_BY(mu);
    /**
     * The intern index: a power-of-two table of op ids (kFree when
     * empty), kept at most half full and probed linearly from a slot
     * taken from the top bits of hash * 2^64/phi (the signature
     * hash's low bits cluster). Every lowered launch is looked up
     * here, so it is flat rather than node-based.
     */
    std::vector<uint32_t> slots SEQ_GUARDED_BY(mu);
    unsigned slotBits SEQ_GUARDED_BY(mu) = 0; ///< log2(slots.size())
    /** Node-based, so handed-out programs never move. */
    std::map<std::tuple<unsigned, int64_t, bool>,
             std::unique_ptr<const Program>> programs SEQ_GUARDED_BY(mu);
    /** Set by the first share(); freezes the network for good. */
    bool shared SEQ_GUARDED_BY(mu) = false;

    /** @return The first slot probed for a signature hash. */
    std::size_t
    home(std::size_t hash) const SEQ_REQUIRES(mu)
    {
        return static_cast<std::size_t>(
            (static_cast<uint64_t>(hash) * 0x9e3779b97f4a7c15ULL) >>
            (64 - slotBits));
    }

    /**
     * @return The id of `kd` (repeat ignored), interning it if new.
     *         Ops are equal when their timing signatures and their
     *         name recipes (stem plus variant fields) are.
     */
    uint32_t
    intern(const sim::KernelDesc &kd) SEQ_REQUIRES(mu)
    {
        if (2 * (ops.size() + 1) > slots.size())
            rehash(slotBits ? slotBits + 1 : 6);
        const sim::KernelSignature sig = sim::kernelSignature(kd);
        const std::size_t hash = sim::KernelSignatureHash{}(sig);
        const std::size_t mask = slots.size() - 1;
        for (std::size_t i = home(hash);; i = (i + 1) & mask) {
            uint32_t id = slots[i];
            if (id == kFree) {
                id = static_cast<uint32_t>(ops.size());
                ops.push_back(kd);
                ops.back().repeat = 1;
                opHash.push_back(hash);
                slots[i] = id;
                return id;
            }
            const sim::KernelDesc &op = ops[id];
            if (opHash[id] == hash && op.stem == kd.stem &&
                op.tileM == kd.tileM && op.tileN == kd.tileN &&
                op.tileK == kd.tileK &&
                op.softmaxBlock == kd.softmaxBlock &&
                sim::kernelSignature(op) == sig)
                return id;
        }
    }

    /** Rebuild the index with 2^bits slots. */
    void
    rehash(unsigned bits) SEQ_REQUIRES(mu)
    {
        slotBits = bits;
        slots.assign(std::size_t{1} << bits, kFree);
        const std::size_t mask = slots.size() - 1;
        for (uint32_t id = 0; id < ops.size(); ++id) {
            std::size_t i = home(opHash[id]);
            while (slots[i] != kFree)
                i = (i + 1) & mask;
            slots[i] = id;
        }
    }
};

/** The state every handle on one network shares. */
struct Model::Network {
    std::vector<std::unique_ptr<Layer>> layers;
    double tgtRatio = 1.0;
    ProgramMemo memo;
};

Model::Model(std::string name)
    : Model(std::move(name), std::make_shared<Network>())
{
}

Model::Model(std::string name, std::shared_ptr<Network> state)
    : name_(std::move(name)), net(std::move(state))
{
    fatal_if(name_.empty(), "Model: empty name");
}

Model::~Model() = default;
Model::Model(Model &&) noexcept = default;
Model &Model::operator=(Model &&) noexcept = default;

Model
Model::share() const
{
    {
        MutexLock lock(net->memo.mu);
        net->memo.shared = true;
    }
    return Model(name_, net);
}

void
Model::checkMutable(const char *what) const
{
    MutexLock lock(net->memo.mu);
    panic_if(net->memo.shared,
             "Model %s: %s after the model has been shared",
             name_.c_str(), what);
    panic_if(!net->memo.programs.empty(),
             "Model %s: %s after the model has been lowered",
             name_.c_str(), what);
}

void
Model::add(std::unique_ptr<Layer> layer)
{
    panic_if(!layer, "Model::add: null layer");
    checkMutable("add");
    net->layers.push_back(std::move(layer));
}

size_t
Model::numLayers() const
{
    return net->layers.size();
}

const Layer &
Model::layer(size_t i) const
{
    panic_if(i >= net->layers.size(), "Model::layer: index out of range");
    return *net->layers[i];
}

uint64_t
Model::paramCount() const
{
    uint64_t total = 0;
    for (const auto &l : net->layers)
        total += l->paramCount();
    return total;
}

void
Model::setTargetLenRatio(double ratio)
{
    fatal_if(ratio <= 0.0, "Model: non-positive target length ratio");
    checkMutable("setTargetLenRatio");
    net->tgtRatio = ratio;
}

double
Model::targetLenRatio() const
{
    return net->tgtRatio;
}

int64_t
Model::targetLenFor(int64_t src_len) const
{
    int64_t t = static_cast<int64_t>(
        std::llround(net->tgtRatio * static_cast<double>(src_len)));
    return t < 1 ? 1 : t;
}

void
Model::lowerOptimizer(LowerCtx &ctx) const
{
    // Global gradient-norm reduction over all parameters, then one
    // fused update per parameterised layer, plus the scalar
    // bookkeeping launches frameworks emit each step.
    static const sim::KernelStem grad_norm("opt_grad_norm");
    static const sim::KernelStem lr_step("opt_lr_step");
    static const sim::KernelStem sgd_update("opt_sgd_update");
    static const sim::KernelStem step_count("opt_step_count");

    uint64_t params = paramCount();
    if (params == 0)
        return;

    ctx.emit(sim::makeReduction(grad_norm, static_cast<double>(params)));
    ctx.emit(makeScalarOp(lr_step));

    for (const auto &l : net->layers) {
        uint64_t p = l->paramCount();
        if (p == 0)
            continue;
        // Momentum SGD: read param, grad, momentum; write param,
        // momentum.
        ctx.emit(sim::makeElementwise(sgd_update,
            static_cast<double>(p), 4.0, 3.0, 2.0));
    }
    ctx.emit(makeScalarOp(step_count));
}

std::vector<sim::KernelDesc>
Model::lowerKernels(unsigned batch, int64_t seq_len, bool train) const
{
    fatal_if(batch == 0, "Model: zero batch size");
    fatal_if(seq_len <= 0, "Model: non-positive sequence length");

    std::vector<sim::KernelDesc> out;
    LowerCtx ctx;
    ctx.batch = batch;
    ctx.seqLen = seq_len;
    ctx.tgtLen = targetLenFor(seq_len);
    ctx.out = &out;

    for (const auto &l : net->layers)
        l->lowerForward(ctx);
    if (train) {
        for (auto it = net->layers.rbegin(); it != net->layers.rend();
             ++it)
            (*it)->lowerBackward(ctx);
        lowerOptimizer(ctx);
    }
    return out;
}

const Program &
Model::program(unsigned batch, int64_t seq_len, bool train) const
{
    const auto key = std::make_tuple(batch, seq_len, train);
    {
        MutexLock lock(net->memo.mu);
        auto it = net->memo.programs.find(key);
        if (it != net->memo.programs.end())
            return *it->second;
    }

    // Lower outside the lock so concurrent profilers -- of one
    // Experiment, or of every Experiment sharing the network -- lower
    // different SLs in parallel; only interning the result serialises. A racing
    // thread that lowered the same key first wins, so the op table
    // only ever holds ops of memoized programs.
    std::vector<sim::KernelDesc> kernels = lowerKernels(batch, seq_len,
                                                        train);
    MutexLock lock(net->memo.mu);
    auto it = net->memo.programs.find(key);
    if (it != net->memo.programs.end())
        return *it->second;
    auto prog = std::make_unique<Program>();
    prog->reserve(kernels.size());
    for (const sim::KernelDesc &kd : kernels) {
        panic_if(kd.repeat > UINT32_MAX, "Model %s: repeat %llu too large",
                 name_.c_str(), static_cast<unsigned long long>(kd.repeat));
        prog->push_back(ProgramStep{net->memo.intern(kd),
                                    static_cast<uint32_t>(kd.repeat)});
    }
    return *net->memo.programs.emplace(key, std::move(prog)).first->second;
}

sim::KernelDesc
Model::op(uint32_t id) const
{
    MutexLock lock(net->memo.mu);
    panic_if(id >= net->memo.ops.size(), "Model::op: unknown op id %u", id);
    return net->memo.ops[id];
}

uint32_t
Model::opCount() const
{
    MutexLock lock(net->memo.mu);
    return static_cast<uint32_t>(net->memo.ops.size());
}

std::vector<sim::KernelDesc>
Model::resolve(const Program &prog, Autotuner &tuner) const
{
    // Programs repeat their ops (stacked layers of equal shape share
    // one), so resolve each distinct op once.
    std::vector<uint32_t> ids;
    ids.reserve(prog.size());
    for (const ProgramStep &step : prog)
        ids.push_back(step.op);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

    std::vector<sim::KernelDesc> resolved;
    resolved.reserve(ids.size());
    {
        MutexLock lock(net->memo.mu);
        for (uint32_t id : ids)
            resolved.push_back(net->memo.ops[id]);
    }
    // Tuning may probe the device; do it outside the lock.
    for (sim::KernelDesc &kd : resolved)
        kd = resolveKernel(kd, tuner);

    std::vector<sim::KernelDesc> out;
    out.reserve(prog.size());
    for (const ProgramStep &step : prog) {
        auto at = std::lower_bound(ids.begin(), ids.end(), step.op);
        out.push_back(resolved[static_cast<std::size_t>(at - ids.begin())]);
        out.back().repeat = step.repeat;
    }
    return out;
}

std::vector<sim::KernelDesc>
Model::lowerIteration(unsigned batch, int64_t seq_len,
                      Autotuner &tuner) const
{
    return resolve(program(batch, seq_len, /*train=*/true), tuner);
}

std::vector<sim::KernelDesc>
Model::lowerInference(unsigned batch, int64_t seq_len,
                      Autotuner &tuner) const
{
    return resolve(program(batch, seq_len, /*train=*/false), tuner);
}

} // namespace nn
} // namespace seqpoint
