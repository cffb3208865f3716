// Fuzz target: the Ariadne protocol wire codec — the byte boundary a
// deployed node would expose to the network. try_decode must map every
// byte sequence to either a validated WireMessage or a Result error;
// accepted messages must re-encode to a form the decoder accepts again
// with the same type (encode∘decode closure), and the byte-count pass
// that sizes simulated traffic must equal the encoded length. Any
// escaping exception, abort, or overread under ASan is a finding.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "ariadne/wire.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
    namespace wire = sariadne::ariadne::wire;

    const auto decoded = wire::try_decode(std::span(data, size));
    if (decoded.ok()) {
        const std::vector<std::uint8_t> bytes = wire::encode(decoded.value());
        if (wire::encoded_size(decoded.value()) != bytes.size()) std::abort();
        const auto again = wire::try_decode(bytes);
        if (!again.ok() || again.value().type != decoded.value().type) {
            std::abort();
        }
    }
    return 0;
}
