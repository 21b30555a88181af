#include "models/descriptor.h"

#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/network.h"
#include "nn/pooling.h"
#include "util/logging.h"

namespace insitu {

double
LayerDesc::ops() const
{
    return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
           static_cast<double>(k) * static_cast<double>(k) *
           static_cast<double>(r) * static_cast<double>(c);
}

double
LayerDesc::weight_count() const
{
    return static_cast<double>(m) * static_cast<double>(n) *
           static_cast<double>(k) * static_cast<double>(k);
}

double
LayerDesc::input_count() const
{
    return static_cast<double>(n) * static_cast<double>(k) *
           static_cast<double>(k) * static_cast<double>(r) *
           static_cast<double>(c);
}

double
LayerDesc::output_count() const
{
    return static_cast<double>(m) * static_cast<double>(r) *
           static_cast<double>(c);
}

std::vector<LayerDesc>
NetworkDesc::conv_layers() const
{
    std::vector<LayerDesc> out;
    for (const auto& l : layers)
        if (l.type == LayerType::kConv) out.push_back(l);
    return out;
}

std::vector<LayerDesc>
NetworkDesc::fcn_layers() const
{
    std::vector<LayerDesc> out;
    for (const auto& l : layers)
        if (l.type == LayerType::kFcn) out.push_back(l);
    return out;
}

double
NetworkDesc::total_ops() const
{
    double acc = 0.0;
    for (const auto& l : layers) acc += l.ops();
    return acc;
}

double
NetworkDesc::total_weights() const
{
    double acc = 0.0;
    for (const auto& l : layers) acc += l.weight_count();
    return acc;
}

namespace {

LayerDesc
conv(std::string name, int64_t n, int64_t m, int64_t k, int64_t r,
     int64_t c)
{
    LayerDesc l;
    l.name = std::move(name);
    l.type = LayerType::kConv;
    l.n = n;
    l.m = m;
    l.k = k;
    l.r = r;
    l.c = c;
    return l;
}

LayerDesc
fcn(std::string name, int64_t in, int64_t out)
{
    LayerDesc l;
    l.name = std::move(name);
    l.type = LayerType::kFcn;
    l.n = in;
    l.m = out;
    return l;
}

} // namespace

NetworkDesc
alexnet_desc()
{
    NetworkDesc d;
    d.name = "AlexNet";
    d.layers = {
        conv("conv1", 3, 96, 11, 55, 55),
        conv("conv2", 96, 256, 5, 27, 27),
        conv("conv3", 256, 384, 3, 13, 13),
        conv("conv4", 384, 384, 3, 13, 13),
        conv("conv5", 384, 256, 3, 13, 13),
        fcn("fc6", 9216, 4096),
        fcn("fc7", 4096, 4096),
        fcn("fc8", 4096, 1000),
    };
    return d;
}

NetworkDesc
vgg16_desc()
{
    NetworkDesc d;
    d.name = "VGGNet";
    d.layers = {
        conv("conv1_1", 3, 64, 3, 224, 224),
        conv("conv1_2", 64, 64, 3, 224, 224),
        conv("conv2_1", 64, 128, 3, 112, 112),
        conv("conv2_2", 128, 128, 3, 112, 112),
        conv("conv3_1", 128, 256, 3, 56, 56),
        conv("conv3_2", 256, 256, 3, 56, 56),
        conv("conv3_3", 256, 256, 3, 56, 56),
        conv("conv4_1", 256, 512, 3, 28, 28),
        conv("conv4_2", 512, 512, 3, 28, 28),
        conv("conv4_3", 512, 512, 3, 28, 28),
        conv("conv5_1", 512, 512, 3, 14, 14),
        conv("conv5_2", 512, 512, 3, 14, 14),
        conv("conv5_3", 512, 512, 3, 14, 14),
        fcn("fc6", 25088, 4096),
        fcn("fc7", 4096, 4096),
        fcn("fc8", 4096, 1000),
    };
    return d;
}

NetworkDesc
googlenet_desc()
{
    // Sequentialized inception stages with summed branch dimensions;
    // op totals land near the published ~3 GFLOPs.
    NetworkDesc d;
    d.name = "GoogleNet";
    d.layers = {
        conv("conv1", 3, 64, 7, 112, 112),
        conv("conv2", 64, 192, 3, 56, 56),
        conv("inc3a", 192, 256, 3, 28, 28),
        conv("inc3b", 256, 480, 3, 28, 28),
        conv("inc4a", 480, 512, 3, 14, 14),
        conv("inc4b", 512, 512, 3, 14, 14),
        conv("inc4c", 512, 512, 3, 14, 14),
        conv("inc4d", 512, 528, 3, 14, 14),
        conv("inc4e", 528, 832, 3, 14, 14),
        conv("inc5a", 832, 832, 3, 7, 7),
        conv("inc5b", 832, 1024, 3, 7, 7),
        fcn("fc", 1024, 1000),
    };
    return d;
}

NetworkDesc
describe(const Network& net, std::vector<int64_t> shape)
{
    NetworkDesc d{net.name(), {}};
    for (size_t i = 0; i < net.size(); ++i) {
        const Layer& layer = net.layer(i);
        if (const auto* cv = dynamic_cast<const Conv2d*>(&layer)) {
            INSITU_CHECK(shape.size() == 3 && shape[0] == cv->in_channels(),
                         "describe: ", layer.name(), " input mismatch");
            const ConvGeometry g{.in_h = shape[1], .in_w = shape[2],
                                 .kernel = cv->kernel(),
                                 .stride = cv->stride(), .pad = cv->pad()};
            shape = {cv->out_channels(), g.out_h(), g.out_w()};
            d.layers.push_back(conv(layer.name(), cv->in_channels(),
                                    shape[0], g.kernel, shape[1], shape[2]));
        } else if (const auto* fc = dynamic_cast<const Linear*>(&layer)) {
            int64_t in = 1;
            for (int64_t s : shape) in *= s;
            INSITU_CHECK(in == fc->in_features(), "describe: ",
                         layer.name(), " input mismatch");
            shape = {fc->out_features()};
            d.layers.push_back(fcn(layer.name(), in, shape[0]));
        } else if (const auto* mp = dynamic_cast<const MaxPool2d*>(&layer)) {
            INSITU_CHECK(shape.size() == 3, "describe: ", layer.name(),
                         " input mismatch");
            // A pool window is an unpadded conv window.
            const ConvGeometry g{.in_h = shape[1], .in_w = shape[2],
                                 .kernel = mp->kernel(),
                                 .stride = mp->stride()};
            shape = {shape[0], g.out_h(), g.out_w()};
        } else {
            INSITU_CHECK(layer.kind() == "relu" || layer.kind() == "flatten",
                         "describe: no geometry for ", layer.kind());
        }
    }
    return d;
}

NetworkDesc
jigsaw_head_desc()
{
    NetworkDesc d;
    d.name = "JigsawHead";
    d.layers = {
        // 9 tiles x 1024 trunk features -> permutation classifier
        // (100 classes as in Fig. 3).
        fcn("jfc1", 9 * 1024, 1024),
        fcn("jfc2", 1024, 1024),
        fcn("jfc3", 1024, 100),
    };
    return d;
}

NetworkDesc
diagnosis_desc(const NetworkDesc& inference)
{
    NetworkDesc d;
    d.name = inference.name + "-diagnosis";
    for (const auto& l : inference.layers) {
        if (l.type != LayerType::kConv) continue;
        LayerDesc t = l;
        t.name = l.name + ".tile";
        // The paper's AlexNet ratio: conv1's 55 x 55 map is 27 x 27
        // on a tile, so every map halves per side.
        t.r = std::max<int64_t>(1, l.r / 2);
        t.c = std::max<int64_t>(1, l.c / 2);
        d.layers.push_back(t);
    }
    return d;
}

} // namespace insitu
