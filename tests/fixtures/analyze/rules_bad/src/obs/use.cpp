#include "obs/metrics.hpp"

void record_fixture() {
    counter("adhoc.metric");
    counter(names::kFixtureRegistered);
}
