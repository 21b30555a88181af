#include "data/condition.h"

#include <algorithm>

namespace insitu {

Condition
Condition::ideal()
{
    Condition c;
    c.name = "ideal";
    return c;
}

Condition
Condition::in_situ(double severity)
{
    severity = std::clamp(severity, 0.0, 1.0);
    Condition c;
    c.brightness = 1.0 - 0.65 * severity;
    c.contrast = 1.0 - 0.4 * severity;
    c.noise_std = 0.02 + 0.12 * severity;
    c.occlusion_prob = 0.6 * severity;
    c.occlusion_size = 0.3 + 0.3 * severity;
    c.position_jitter = 0.05 + 0.2 * severity;
    c.scale_min = 0.9 - 0.35 * severity;
    c.scale_max = 1.1 + 0.4 * severity;
    c.name = "in_situ_" + std::to_string(severity).substr(0, 4);
    return c;
}

Condition
Condition::night()
{
    Condition c = in_situ(0.5);
    c.brightness = 0.3;
    c.noise_std = 0.15;
    c.name = "night";
    return c;
}

} // namespace insitu
