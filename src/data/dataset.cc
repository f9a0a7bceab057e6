/**
 * @file
 * Dataset factories.
 */

#include "data/dataset.hh"

#include "data/distributions.hh"

namespace seqpoint {
namespace data {

Dataset
synthLibriSpeech100(uint64_t seed)
{
    Rng rng(seed, 0x11b5);
    Dataset ds;
    ds.name = "LibriSpeech-100h(synth)";
    // ~36.5k utterances -> 570 iterations/epoch at batch 64.
    ds.trainLens = librispeechLengths(rng, 36480);
    // LibriSpeech dev-clean is 2703 utterances.
    ds.evalLens = librispeechLengths(rng, 2703);
    return ds;
}

Dataset
synthIwslt15(uint64_t seed)
{
    Rng rng(seed, 0x1351);
    Dataset ds;
    ds.name = "IWSLT15(synth)";
    // ~38.4k sentence pairs -> 600 iterations/epoch at batch 64.
    ds.trainLens = iwsltLengths(rng, 38400);
    // IWSLT tst2013 is 1553 sentence pairs.
    ds.evalLens = iwsltLengths(rng, 1553);
    return ds;
}

Dataset
synthWmt16(uint64_t seed)
{
    Rng rng(seed, 0x3316);
    Dataset ds;
    ds.name = "WMT16(synth)";
    // Much larger corpus, same SL range.
    ds.trainLens = wmtLengths(rng, 384000);
    ds.evalLens = wmtLengths(rng, 2048);
    return ds;
}

} // namespace data
} // namespace seqpoint
