/**
 * @file
 * Environment conditions for the synthetic IoT data generator.
 *
 * The paper's motivating failure mode (Table I, Fig. 2) is that models
 * trained on ideal, curated data degrade on in-situ data whose
 * acquisition conditions drift: poor illumination, animals too close
 * to the camera (partial views), random poses. Condition captures
 * those axes as a parametric distortion applied at render time.
 */
#pragma once

#include <string>

namespace insitu {

/** Rendering-time acquisition conditions for one image. */
struct Condition {
    /// Global illumination multiplier (1 = studio, ~0.3 = night).
    double brightness = 1.0;
    /// Contrast multiplier applied around mid-gray.
    double contrast = 1.0;
    /// Std-dev of additive Gaussian sensor noise.
    double noise_std = 0.02;
    /// Probability that a random occluding rectangle covers part of
    /// the subject (animal too close / foliage).
    double occlusion_prob = 0.0;
    /// Max fraction of the image edge an occluder may span.
    double occlusion_size = 0.4;
    /// Subject position jitter as a fraction of image size (pose).
    double position_jitter = 0.05;
    /// Subject scale range (min, max) as a fraction of nominal.
    double scale_min = 0.9;
    double scale_max = 1.1;

    /// Human-readable label for reports.
    std::string name = "ideal";

    /** Curated, ImageNet-like conditions. */
    static Condition ideal();

    /**
     * In-situ camera-trap conditions at severity in [0, 1]:
     * 0 ~= ideal; 1 ~= night, heavy occlusion, wild pose.
     */
    static Condition in_situ(double severity);

    /** Night-time preset (severity-0.8 illumination emphasis). */
    static Condition night();
};

} // namespace insitu
