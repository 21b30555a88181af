#include "nn/trainer.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "util/logging.h"
#include "util/rng.h"

namespace insitu {

double
train_batch(Network& net, Sgd& opt, const Tensor& inputs,
            const std::vector<int64_t>& labels, size_t first_layer)
{
    net.zero_grad();
    const Tensor logits = net.forward_layers(inputs, /*training=*/true,
                                             first_layer, net.size());
    SoftmaxCrossEntropy loss;
    const double value = loss.forward(logits, labels);
    net.backward(loss.backward());
    opt.step(net.params());
    return value;
}

double
evaluate_accuracy(Network& net, const Tensor& inputs,
                  const std::vector<int64_t>& labels,
                  size_t first_layer, int64_t batch_size)
{
    const int64_t n = inputs.dim(0);
    INSITU_CHECK(static_cast<int64_t>(labels.size()) == n,
                 "evaluate: label count mismatch");
    if (n == 0) return 0.0;
    int64_t correct = 0;
    for (int64_t begin = 0; begin < n; begin += batch_size) {
        const int64_t end = std::min(n, begin + batch_size);
        const Tensor chunk = inputs.slice0(begin, end);
        const Tensor logits = net.forward_layers(
            chunk, /*training=*/false, first_layer, net.size());
        const auto preds = logits.argmax_rows();
        for (int64_t i = 0; i < end - begin; ++i)
            if (preds[static_cast<size_t>(i)] ==
                labels[static_cast<size_t>(begin + i)])
                ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(n);
}

Tensor
prefix_activations(Network& net, const Tensor& inputs, size_t end,
                   int64_t batch_size)
{
    INSITU_CHECK(end > 0, "prefix_activations needs a non-empty prefix");
    const int64_t n = inputs.dim(0);
    if (n == 0) return inputs;
    Tensor out;
    for (int64_t begin = 0; begin < n; begin += batch_size) {
        const int64_t stop = std::min(n, begin + batch_size);
        const Tensor chunk = net.forward_layers(
            inputs.slice0(begin, stop), /*training=*/false, 0, end);
        if (begin == 0) {
            std::vector<int64_t> shape = chunk.shape();
            shape[0] = n;
            out = Tensor::uninitialized(shape);
        }
        std::copy(chunk.data(), chunk.data() + chunk.numel(),
                  out.data() + begin * (out.numel() / n));
    }
    return out;
}

Tensor
gather_rows(const Tensor& inputs, const std::vector<int64_t>& indices)
{
    return gather_rows(inputs, indices.data(),
                       static_cast<int64_t>(indices.size()));
}

Tensor
gather_rows(const Tensor& inputs, const int64_t* indices,
            int64_t count)
{
    INSITU_CHECK(inputs.rank() >= 1, "gather_rows needs rank >= 1");
    INSITU_CHECK(count >= 0 && (count == 0 || indices != nullptr),
                 "gather_rows needs a valid index buffer");
    std::vector<int64_t> shape = inputs.shape();
    shape[0] = count;
    Tensor out(shape);
    const int64_t inner =
        inputs.numel() / std::max<int64_t>(inputs.dim(0), 1);
    for (int64_t i = 0; i < count; ++i) {
        const int64_t src = indices[i];
        INSITU_CHECK(src >= 0 && src < inputs.dim(0),
                     "gather_rows index out of range");
        std::copy(inputs.data() + src * inner,
                  inputs.data() + (src + 1) * inner,
                  out.data() + i * inner);
    }
    return out;
}

Dataset
gather_dataset(const Dataset& data, const std::vector<int64_t>& indices)
{
    return gather_dataset(data, indices.data(),
                          static_cast<int64_t>(indices.size()));
}

Dataset
gather_dataset(const Dataset& data, const int64_t* indices,
               int64_t count)
{
    Dataset out;
    out.condition = data.condition;
    out.images = gather_rows(data.images, indices, count);
    out.labels.reserve(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i)
        out.labels.push_back(data.labels[static_cast<size_t>(indices[i])]);
    return out;
}

std::vector<EpochStats>
train_epochs(Network& net, Sgd& opt, const Tensor& inputs,
             const std::vector<int64_t>& labels, int64_t batch_size,
             int epochs, Rng& rng, size_t first_layer)
{
    const int64_t n = inputs.dim(0);
    INSITU_CHECK(static_cast<int64_t>(labels.size()) == n,
                 "train: label count mismatch");
    INSITU_CHECK(batch_size > 0, "batch size must be positive");
    std::vector<int64_t> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);

    std::vector<EpochStats> stats;
    for (int e = 0; e < epochs; ++e) {
        const auto t0 = std::chrono::steady_clock::now();
        rng.shuffle(order);
        double loss_acc = 0.0;
        int64_t batches = 0;
        for (int64_t begin = 0; begin < n; begin += batch_size) {
            const int64_t end = std::min(n, begin + batch_size);
            std::vector<int64_t> idx(
                order.begin() + static_cast<size_t>(begin),
                order.begin() + static_cast<size_t>(end));
            const Tensor x = gather_rows(inputs, idx);
            std::vector<int64_t> y(idx.size());
            for (size_t i = 0; i < idx.size(); ++i)
                y[i] = labels[static_cast<size_t>(idx[i])];
            loss_acc += train_batch(net, opt, x, y, first_layer);
            ++batches;
        }
        const auto t1 = std::chrono::steady_clock::now();
        EpochStats es;
        es.mean_loss =
            batches ? loss_acc / static_cast<double>(batches) : 0.0;
        es.train_seconds =
            std::chrono::duration<double>(t1 - t0).count();
        stats.push_back(es);
    }
    return stats;
}

} // namespace insitu
