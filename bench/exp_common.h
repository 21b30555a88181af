/**
 * @file
 * Shared scaffolding for the per-table/per-figure bench binaries.
 *
 * Every binary reproduces one table or figure of the paper on the
 * synthetic substrate and prints the paper's reported values next to
 * the measured ones. Absolute numbers are not expected to match (the
 * substrate is a simulator at reduced scale); the *shape* — ordering,
 * crossovers, rough factors — is the reproduction target recorded in
 * EXPERIMENTS.md.
 */
#pragma once

#include <string>

#include "data/synth.h"
#include "models/tiny.h"
#include "nn/trainer.h"
#include "selfsup/jigsaw.h"
#include "util/rng.h"
#include "util/table.h"

namespace insitu::bench {

/** Print the standard banner for one experiment. */
void banner(const std::string& id, const std::string& title,
            const std::string& paper_claim);

/** Print a closing line summarizing whether the shape held. */
void verdict(bool shape_holds, const std::string& detail);

/**
 * Optionally dump a rendered table as CSV: when the environment
 * variable INSITU_BENCH_CSV_DIR is set, write <dir>/<id>.csv with the
 * table's headers/rows. No-op otherwise.
 */
void maybe_write_csv(const std::string& id, const TablePrinter& table);

/** Reduced-scale knobs shared by the training-based experiments. */
struct TrainScale {
    int64_t train_images = 1200;
    int64_t test_images = 400;
    int epochs = 3;
    int64_t batch_size = 32;
    double lr = 0.01;
    uint64_t seed = 2018; // HPCA year
};

/** Train @p net on @p data; returns wall seconds spent. */
double fit(Network& net, const Dataset& data, const TrainScale& scale,
           int epochs_override = -1);

/** Accuracy of @p net on @p data. */
double accuracy(Network& net, const Dataset& data);

/**
 * Pre-train a jigsaw network on @p raw for @p epochs; returns pretext
 * accuracy. The same permutation set must be used for evaluation.
 */
double pretrain_jigsaw(JigsawNetwork& jigsaw, const PermutationSet& perms,
                       const Tensor& raw, int epochs, Rng& rng);

} // namespace insitu::bench
