// Seeds [atomic-claim] violations.  A consumed fetch_add/fetch_sub result
// is a hand-rolled dynamic work claim: which thread observes which value
// depends on the schedule, so any algorithmic state derived from it is
// nondeterministic.  Dynamic claiming must go through the one blessed claim
// site (runtime/thread_pool.cpp, reached via run_chunks), which scopes the
// value to pure execution (chunk identity) and publishes nothing
// schedule-dependent.  Statement-form fetches — counter bumps whose result
// is discarded — stay legal everywhere, as the last function shows.
#include <atomic>
#include <cstddef>

namespace fixture {

std::atomic<std::size_t> cursor{0};
std::atomic<int> credits{8};
std::atomic<unsigned> bumps{0};

std::size_t claim_next_chunk() {
  return cursor.fetch_add(1);  // expect: atomic-claim
}

void drain(std::size_t total) {
  for (;;) {
    const std::size_t c = cursor.fetch_add(1);  // expect: atomic-claim
    if (c >= total) break;
  }
}

bool try_take_credit() {
  if (credits.fetch_sub(1) > 0) {  // expect: atomic-claim
    return true;
  }
  // Guarded statement-form fetch: the result is discarded, so this is a
  // plain counter bump and must NOT fire even though an `if` guards it.
  if (credits.load() < 0) credits.fetch_add(1);
  return false;
}

void count_event() {
  bumps.fetch_add(1);  // publish-only: must NOT fire
}

}  // namespace fixture
