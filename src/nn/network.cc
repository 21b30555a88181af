#include "nn/network.h"

#include <sstream>
#include <unordered_set>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/pooling.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace insitu {

namespace {

/**
 * Per-kind layer timing histogram, e.g. `nn.forward.conv.time_s`.
 * In simulated-clock runs every observation is 0 s — the counts still
 * tell how often each layer kind ran, deterministically; wall-clock
 * runs yield the real per-kind runtime breakdown (a bench run with
 * INSITU_TELEMETRY_JSONL set exports it). @p slot caches the handle:
 * it is looked up on the layer's first call in that direction, so a
 * histogram is registered only once it is observed.
 */
obs::Histogram&
layer_time_histogram(obs::Histogram*& slot, const char* dir,
                     const Layer& layer)
{
    if (slot == nullptr)
        slot = &obs::MetricsRegistry::global().histogram(
            std::string("nn.") + dir + "." + layer.kind() + ".time_s");
    return *slot;
}

/** The layers an eval forward runs as one, from layer i on. */
struct FusedRun {
    size_t layers = 1;
    ConvEpilogue epilogue = ConvEpilogue::kBias;
};

/** The eval-mode run starting at layer @p i < @p end: a conv, its ReLU
 *  and a 2x2, stride-2 pool if both are in range; else layer i alone. */
FusedRun
fused_run(const std::vector<LayerPtr>& layers, size_t i, size_t end)
{
    if (i + 1 >= end || dynamic_cast<const Conv2d*>(layers[i].get()) ==
                            nullptr ||
        dynamic_cast<const ReLU*>(layers[i + 1].get()) == nullptr)
        return {};
    const auto* pool =
        i + 2 < end ? dynamic_cast<const MaxPool2d*>(layers[i + 2].get())
                    : nullptr;
    if (pool != nullptr && pool->kernel() == 2 && pool->stride() == 2)
        return {3, ConvEpilogue::kReluPool2x2};
    return {2, ConvEpilogue::kRelu};
}

} // namespace

Network&
Network::add(LayerPtr layer)
{
    INSITU_CHECK(layer != nullptr, "cannot add null layer");
    timers_.push_back({});
    layers_.push_back(std::move(layer));
    return *this;
}

Tensor
Network::forward(const Tensor& input, bool training)
{
    return forward_layers(input, training, 0, layers_.size());
}

Tensor
Network::forward_layers(const Tensor& input, bool training,
                        size_t begin, size_t end)
{
    INSITU_CHECK(begin <= end && end <= layers_.size(),
                 "forward_layers range out of bounds");
    obs::ScopedSpan span("nn.forward", "network", name_);
    if (begin == end) return input;
    // The first layer reads the caller's tensor; no copy is made.
    Tensor x;
    for (size_t i = begin; i < end;) {
        Layer& layer = *layers_[i];
        const FusedRun run =
            training ? FusedRun{} : fused_run(layers_, i, end);
        obs::ScopedSpan layer_span("nn.forward.layer", "layer",
                                   layer.name());
        obs::Histogram& time =
            layer_time_histogram(timers_[i].forward, "forward", layer);
        const double t0 = obs::now_s();
        const Tensor& in = i == begin ? input : x;
        x = run.layers == 1
                ? layer.forward(in, training)
                : static_cast<Conv2d&>(layer).forward_fused(
                      in, run.epilogue);
        time.observe(obs::now_s() - t0);
        if (run.layers > 1)
            static_cast<ReLU&>(*layers_[i + 1]).drop_state();
        if (run.layers > 2)
            static_cast<MaxPool2d&>(*layers_[i + 2]).drop_state();
        i += run.layers;
    }
    return x;
}

size_t
Network::first_trainable() const
{
    for (size_t i = 0; i < layers_.size(); ++i)
        for (auto& p : layers_[i]->params())
            if (!p->frozen()) return i;
    return layers_.size();
}

void
Network::backward(const Tensor& grad_output)
{
    // Early stop: when every parameter below some depth is frozen, no
    // gradient below that depth is ever consumed — neither by the
    // optimizer (frozen) nor by earlier layers (there are none that
    // train). Stopping there is what makes CONV-n weight sharing
    // genuinely cheaper to fine-tune (Fig. 6's 1.7x speedup), not just
    // fewer optimizer updates; the lowest layer run skips its dX.
    backward_from_top(grad_output, first_trainable(), false);
}

Tensor
Network::backward_input(const Tensor& grad_output)
{
    return backward_from_top(grad_output, 0, true);
}

Tensor
Network::backward_from_top(const Tensor& grad_output, size_t stop,
                           bool input_grad)
{
    obs::ScopedSpan span("nn.backward", "network", name_);
    Tensor g = grad_output;
    for (size_t i = layers_.size(); i-- > stop;) {
        Layer& layer = *layers_[i];
        obs::ScopedSpan layer_span("nn.backward.layer", "layer",
                                   layer.name());
        obs::Histogram& time =
            layer_time_histogram(timers_[i].backward, "backward", layer);
        const double t0 = obs::now_s();
        if (i == stop && !input_grad)
            layer.backward_params(g);
        else
            g = layer.backward(g);
        time.observe(obs::now_s() - t0);
    }
    return g;
}

Layer&
Network::layer(size_t i)
{
    INSITU_CHECK(i < layers_.size(), "layer index out of range");
    return *layers_[i];
}

const Layer&
Network::layer(size_t i) const
{
    INSITU_CHECK(i < layers_.size(), "layer index out of range");
    return *layers_[i];
}

std::vector<ParameterPtr>
Network::params() const
{
    std::vector<ParameterPtr> out;
    std::unordered_set<const Parameter*> seen;
    for (const auto& layer : layers_) {
        for (auto& p : layer->params()) {
            if (seen.insert(p.get()).second) out.push_back(p);
        }
    }
    return out;
}

void
Network::zero_grad()
{
    for (auto& p : params()) p->zero_grad();
}

int64_t
Network::param_count() const
{
    int64_t n = 0;
    for (const auto& p : params()) n += p->numel();
    return n;
}

int64_t
Network::trainable_param_count() const
{
    int64_t n = 0;
    for (const auto& p : params())
        if (!p->frozen()) n += p->numel();
    return n;
}

std::vector<size_t>
Network::conv_layer_indices() const
{
    std::vector<size_t> out;
    for (size_t i = 0; i < layers_.size(); ++i)
        if (layers_[i]->kind() == "conv") out.push_back(i);
    return out;
}

void
Network::freeze_first_convs(size_t n)
{
    const auto convs = conv_layer_indices();
    INSITU_CHECK(n <= convs.size(), "network ", name_, " has only ",
                 convs.size(), " conv layers, cannot freeze ", n);
    for (size_t i = 0; i < n; ++i)
        for (auto& p : layers_[convs[i]]->params())
            p->set_frozen(true);
}

void
Network::unfreeze_all()
{
    for (auto& p : params()) p->set_frozen(false);
}

void
Network::copy_convs_from(const Network& donor, size_t n)
{
    const auto mine = conv_layer_indices();
    const auto theirs = donor.conv_layer_indices();
    INSITU_CHECK(n <= mine.size() && n <= theirs.size(),
                 "copy_convs_from: not enough conv layers");
    for (size_t i = 0; i < n; ++i) {
        auto dst = layers_[mine[i]]->params();
        auto src =
            const_cast<Network&>(donor).layers_[theirs[i]]->params();
        INSITU_CHECK(dst.size() == src.size(),
                     "conv parameter arity mismatch");
        for (size_t k = 0; k < dst.size(); ++k) {
            INSITU_CHECK(
                dst[k]->value().same_shape(src[k]->value()),
                "copy_convs_from shape mismatch at conv ", i);
            dst[k]->value() = src[k]->value();
        }
    }
}

void
Network::share_convs_from(Network& donor, size_t n)
{
    const auto mine = conv_layer_indices();
    const auto theirs = donor.conv_layer_indices();
    INSITU_CHECK(n <= mine.size() && n <= theirs.size(),
                 "share_convs_from: not enough conv layers");
    for (size_t i = 0; i < n; ++i) {
        auto src = donor.layers_[theirs[i]]->params();
        for (size_t k = 0; k < src.size(); ++k)
            layers_[mine[i]]->set_param(k, src[k]);
    }
}

size_t
Network::shared_conv_prefix(const Network& other) const
{
    const auto mine = conv_layer_indices();
    const auto theirs = other.conv_layer_indices();
    size_t shared = 0;
    for (size_t i = 0; i < std::min(mine.size(), theirs.size()); ++i) {
        auto a = layers_[mine[i]]->params();
        auto b = const_cast<Network&>(other)
                     .layers_[theirs[i]]
                     ->params();
        if (a.size() != b.size()) break;
        bool all_same = true;
        for (size_t k = 0; k < a.size(); ++k)
            if (a[k].get() != b[k].get()) all_same = false;
        if (!all_same) break;
        ++shared;
    }
    return shared;
}

void
copy_parameters(Network& dst, const Network& src)
{
    const auto d = dst.params();
    const auto s = src.params();
    INSITU_CHECK(d.size() == s.size(),
                 "copy_parameters: parameter count mismatch (",
                 d.size(), " vs ", s.size(), ")");
    for (size_t i = 0; i < d.size(); ++i) {
        INSITU_CHECK(d[i]->value().same_shape(s[i]->value()),
                     "copy_parameters: shape mismatch at ",
                     s[i]->name());
        d[i]->value() = s[i]->value();
    }
}

std::string
Network::summary() const
{
    std::ostringstream oss;
    oss << "Network " << name_ << " (" << layers_.size() << " layers, "
        << param_count() << " params, " << trainable_param_count()
        << " trainable)\n";
    for (size_t i = 0; i < layers_.size(); ++i) {
        oss << "  [" << i << "] " << layers_[i]->name() << ": "
            << layers_[i]->describe() << "\n";
    }
    return oss.str();
}

} // namespace insitu
