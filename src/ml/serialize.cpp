#include "ml/serialize.hpp"

#include <istream>
#include <ostream>
#include <string>

#include "common/logging.hpp"

namespace gpupm::ml {

void
saveRandomForest(const RandomForestPredictor &predictor, std::ostream &os)
{
    os << "gpupm-rf v1\n";
    os << "features " << numFeatures << '\n';
    os << "target time\n";
    predictor.timeForest().save(os);
    os << "target power\n";
    predictor.powerForest().save(os);
    GPUPM_ASSERT(os.good(), "stream failure while saving predictor");
}

std::unique_ptr<RandomForestPredictor>
loadRandomForest(std::istream &is)
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
    RandomForest time_forest, power_forest;
    {
        ForestLoader loader;
        auto expect_target = [&](const std::string &name) {
            std::string t, n;
            if (!(is >> t >> n) || t != "target" || n != name)
                loader.fail("expected 'target " + name + "' section");
        };
        expect_target("time");
        loader.read(is, time_forest);
        expect_target("power");
        loader.read(is, power_forest);
        loader.finish();
    }

    return std::make_unique<RandomForestPredictor>(
        std::move(time_forest), std::move(power_forest));
}

} // namespace gpupm::ml
