#include "selfsup/jigsaw.h"

#include "nn/loss.h"
#include "util/logging.h"
#include "util/rng.h"

namespace insitu {

Tensor
extract_patches(const Tensor& images)
{
    INSITU_CHECK(images.rank() == 4, "extract_patches expects NCHW");
    const int64_t b = images.dim(0), c = images.dim(1);
    const int64_t h = images.dim(2), w = images.dim(3);
    INSITU_CHECK(h % 3 == 0 && w % 3 == 0,
                 "image size must be divisible by 3, have ", h, "x", w);
    const int64_t ph = h / 3, pw = w / 3;
    Tensor out({b, PermutationSet::kTiles, c, ph, pw});
    const float* in = images.data();
    float* po = out.data();
    for (int64_t n = 0; n < b; ++n) {
        for (int64_t t = 0; t < PermutationSet::kTiles; ++t) {
            const int64_t ty = t / 3, tx = t % 3;
            for (int64_t ch = 0; ch < c; ++ch) {
                const float* plane = in + (n * c + ch) * h * w;
                float* dst =
                    po + (((n * PermutationSet::kTiles + t) * c + ch) *
                          ph) * pw;
                for (int64_t y = 0; y < ph; ++y)
                    for (int64_t x = 0; x < pw; ++x)
                        dst[y * pw + x] =
                            plane[(ty * ph + y) * w + tx * pw + x];
            }
        }
    }
    return out;
}

Tensor
apply_permutation(const Tensor& patches,
                  const PermutationSet::Perm& perm)
{
    INSITU_CHECK(patches.rank() == 5 &&
                     patches.dim(1) == PermutationSet::kTiles,
                 "apply_permutation expects (B, 9, C, ph, pw)");
    Tensor out(patches.shape());
    const int64_t b = patches.dim(0);
    const int64_t tile_elems =
        patches.numel() / (b * PermutationSet::kTiles);
    const float* in = patches.data();
    float* po = out.data();
    for (int64_t n = 0; n < b; ++n) {
        for (int64_t slot = 0; slot < PermutationSet::kTiles; ++slot) {
            const int64_t src = perm[static_cast<size_t>(slot)];
            std::copy(in + (n * PermutationSet::kTiles + src) *
                               tile_elems,
                      in + (n * PermutationSet::kTiles + src + 1) *
                               tile_elems,
                      po + (n * PermutationSet::kTiles + slot) *
                               tile_elems);
        }
    }
    return out;
}

JigsawBatch
make_jigsaw_batch(const Tensor& images, const PermutationSet& perms,
                  Rng& rng)
{
    const Tensor tiles = extract_patches(images);
    const int64_t b = images.dim(0);
    JigsawBatch batch;
    batch.patches = Tensor(tiles.shape());
    batch.labels.resize(static_cast<size_t>(b));
    const int64_t tile_elems =
        tiles.numel() / (b * PermutationSet::kTiles);
    for (int64_t n = 0; n < b; ++n) {
        const int idx =
            static_cast<int>(rng.next_below(
                static_cast<uint64_t>(perms.size())));
        batch.labels[static_cast<size_t>(n)] = idx;
        const auto& perm = perms.perm(idx);
        for (int64_t slot = 0; slot < PermutationSet::kTiles; ++slot) {
            const int64_t src = perm[static_cast<size_t>(slot)];
            std::copy(tiles.data() +
                          (n * PermutationSet::kTiles + src) *
                              tile_elems,
                      tiles.data() +
                          (n * PermutationSet::kTiles + src + 1) *
                              tile_elems,
                      batch.patches.data() +
                          (n * PermutationSet::kTiles + slot) *
                              tile_elems);
        }
    }
    return batch;
}

JigsawNetwork::JigsawNetwork(Network trunk, Network head)
    : trunk_(std::move(trunk)), head_(std::move(head))
{}

Tensor
JigsawNetwork::forward(const Tensor& patches, bool training)
{
    INSITU_CHECK(patches.rank() == 5 &&
                     patches.dim(1) == PermutationSet::kTiles,
                 "jigsaw forward expects (B, 9, C, ph, pw)");
    const int64_t b = patches.dim(0);
    last_batch_ = b;
    // Fold tiles into the batch: one trunk, nine tiles, shared
    // weights — gradients accumulate in the shared parameters.
    const Tensor folded = patches.reshape(
        {b * PermutationSet::kTiles, patches.dim(2), patches.dim(3),
         patches.dim(4)});
    const Tensor feats = trunk_.forward(folded, training);
    INSITU_CHECK(feats.rank() == 2,
                 "jigsaw trunk must emit rank-2 features");
    const Tensor concat = feats.reshape({b, -1});
    return head_.forward(concat, training);
}

void
JigsawNetwork::backward(const Tensor& grad_logits)
{
    INSITU_CHECK(last_batch_ > 0, "jigsaw backward before forward");
    const Tensor grad_concat = head_.backward_input(grad_logits);
    const Tensor grad_feats = grad_concat.reshape(
        {last_batch_ * PermutationSet::kTiles, -1});
    trunk_.backward(grad_feats);
}

double
JigsawNetwork::train_batch(Sgd& opt, const JigsawBatch& batch)
{
    zero_grad();
    const Tensor logits = forward(batch.patches, /*training=*/true);
    SoftmaxCrossEntropy loss;
    const double value = loss.forward(logits, batch.labels);
    backward(loss.backward());
    opt.step(params());
    return value;
}

double
JigsawNetwork::evaluate(const Tensor& images,
                        const PermutationSet& perms, Rng& rng,
                        int64_t batch_size)
{
    const int64_t n = images.dim(0);
    if (n == 0) return 0.0;
    int64_t correct = 0;
    for (int64_t begin = 0; begin < n; begin += batch_size) {
        const int64_t end = std::min(n, begin + batch_size);
        const Tensor chunk = images.slice0(begin, end);
        const JigsawBatch batch = make_jigsaw_batch(chunk, perms, rng);
        const Tensor logits = forward(batch.patches, false);
        const auto preds = logits.argmax_rows();
        for (size_t i = 0; i < preds.size(); ++i)
            if (preds[i] == batch.labels[i]) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(n);
}

std::vector<ParameterPtr>
JigsawNetwork::params() const
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
JigsawNetwork::zero_grad()
{
    for (auto& p : params()) p->zero_grad();
}

} // namespace insitu
