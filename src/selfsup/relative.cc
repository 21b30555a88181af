#include "selfsup/relative.h"

#include "nn/loss.h"
#include "util/logging.h"
#include "util/rng.h"

namespace insitu {

namespace {

/** Grid index of neighbor choice c in [0, 8) (center tile is 4). */
int64_t
neighbor_tile(int64_t choice)
{
    // Tiles 0..8 in row-major order; skip the center (4).
    return choice < 4 ? choice : choice + 1;
}

} // namespace

RelativeBatch
make_relative_batch(const Tensor& images, Rng& rng)
{
    const Tensor tiles = extract_patches(images);
    const int64_t b = images.dim(0);
    const int64_t tile_elems =
        tiles.numel() / (b * PermutationSet::kTiles);
    RelativeBatch batch;
    batch.pairs = Tensor({b, 2, tiles.dim(2), tiles.dim(3),
                          tiles.dim(4)});
    batch.labels.resize(static_cast<size_t>(b));
    for (int64_t n = 0; n < b; ++n) {
        const int64_t choice = static_cast<int64_t>(
            rng.next_below(kRelativePositions));
        batch.labels[static_cast<size_t>(n)] = choice;
        const int64_t src = neighbor_tile(choice);
        // Slot 0: center tile (index 4); slot 1: the neighbor.
        std::copy(tiles.data() +
                      (n * PermutationSet::kTiles + 4) * tile_elems,
                  tiles.data() +
                      (n * PermutationSet::kTiles + 5) * tile_elems,
                  batch.pairs.data() + (n * 2 + 0) * tile_elems);
        std::copy(tiles.data() +
                      (n * PermutationSet::kTiles + src) * tile_elems,
                  tiles.data() + (n * PermutationSet::kTiles + src + 1) *
                                     tile_elems,
                  batch.pairs.data() + (n * 2 + 1) * tile_elems);
    }
    return batch;
}

RelativePositionNetwork::RelativePositionNetwork(Network trunk,
                                                 Network head)
    : trunk_(std::move(trunk)), head_(std::move(head))
{}

Tensor
RelativePositionNetwork::forward(const Tensor& pairs, bool training)
{
    INSITU_CHECK(pairs.rank() == 5 && pairs.dim(1) == 2,
                 "relative forward expects (B, 2, C, ph, pw)");
    const int64_t b = pairs.dim(0);
    last_batch_ = b;
    const Tensor folded = pairs.reshape(
        {b * 2, pairs.dim(2), pairs.dim(3), pairs.dim(4)});
    const Tensor feats = trunk_.forward(folded, training);
    INSITU_CHECK(feats.rank() == 2,
                 "relative trunk must emit rank-2 features");
    return head_.forward(feats.reshape({b, -1}), training);
}

void
RelativePositionNetwork::backward(const Tensor& grad_logits)
{
    INSITU_CHECK(last_batch_ > 0, "relative backward before forward");
    const Tensor grad_concat = head_.backward_input(grad_logits);
    trunk_.backward(grad_concat.reshape({last_batch_ * 2, -1}));
}

double
RelativePositionNetwork::train_batch(Sgd& opt,
                                     const RelativeBatch& batch)
{
    zero_grad();
    const Tensor logits = forward(batch.pairs, /*training=*/true);
    SoftmaxCrossEntropy loss;
    const double value = loss.forward(logits, batch.labels);
    backward(loss.backward());
    opt.step(params());
    return value;
}

double
RelativePositionNetwork::evaluate(const Tensor& images, Rng& rng,
                                  int64_t batch_size)
{
    const int64_t n = images.dim(0);
    if (n == 0) return 0.0;
    int64_t correct = 0;
    for (int64_t begin = 0; begin < n; begin += batch_size) {
        const int64_t end = std::min(n, begin + batch_size);
        const RelativeBatch batch =
            make_relative_batch(images.slice0(begin, end), rng);
        const Tensor logits = forward(batch.pairs, false);
        const auto preds = logits.argmax_rows();
        for (size_t i = 0; i < preds.size(); ++i)
            if (preds[i] == batch.labels[i]) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(n);
}

std::vector<ParameterPtr>
RelativePositionNetwork::params() const
{
    auto out = trunk_.params();
    for (auto& p : head_.params()) {
        bool dup = false;
        for (auto& q : out)
            if (q.get() == p.get()) dup = true;
        if (!dup) out.push_back(p);
    }
    return out;
}

void
RelativePositionNetwork::zero_grad()
{
    for (auto& p : params()) p->zero_grad();
}

} // namespace insitu
