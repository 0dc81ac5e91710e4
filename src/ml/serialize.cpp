#include "ml/serialize.hpp"

#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "common/logging.hpp"

namespace gpupm::ml {

void
saveRandomForest(const RandomForestPredictor &predictor, std::ostream &os)
{
    os << "gpupm-rf v1\n";
    os << "features " << numFeatures << '\n';
    os << "target time\n";
    predictor.timeFlat().save(os);
    os << "target power\n";
    predictor.powerFlat().save(os);
    GPUPM_ASSERT(os.good(), "stream failure while saving predictor");
}

std::unique_ptr<RandomForestPredictor>
loadRandomForest(std::istream &is)
{
    ModelForests forests = loadForests(is);
    return std::make_unique<RandomForestPredictor>(
        std::move(forests.time), std::move(forests.power));
}

ModelForests
loadForests(std::istream &is)
{
    std::string magic, version;
    if (!(is >> magic >> version) || magic != "gpupm-rf" ||
        version != "v1") {
        GPUPM_FATAL("not a gpupm-rf v1 model stream");
    }

    std::string tag;
    int features = 0;
    if (!(is >> tag >> features) || tag != "features")
        GPUPM_FATAL("malformed model header");
    if (features != numFeatures) {
        GPUPM_FATAL("model was trained with ", features,
                    " features but this build expects ", numFeatures,
                    "; retrain instead of loading");
    }

    // One loader for both forests, so the power forest's trees are cut
    // while the time forest's still parse. It is gone, and its text
    // buffers with it, before the arenas compile.
    ModelForests forests;
    {
        ForestLoader loader;
        auto expect_target = [&](const std::string &name) {
            std::string t, n;
            if (!(is >> t >> n) || t != "target" || n != name)
                loader.fail("expected 'target " + name + "' section");
        };
        expect_target("time");
        loader.read(is, forests.time);
        expect_target("power");
        loader.read(is, forests.power);
        loader.finish();
    }
    return forests;
}

} // namespace gpupm::ml
