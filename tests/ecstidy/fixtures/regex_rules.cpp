// regex-rule fixture: ecstidy's regex group (wire-codec, rng, bench-metrics).
// Never compiled — consumed by scripts/ecstidy's fixture tests only.
#include <cstring>
#include <random>

void bad_memcpy(char* dst, const char* src, unsigned n) {
  memcpy(dst, src, n);
}

unsigned short bad_byte_order(unsigned short v) { return htons(v); }

int bad_rng() {
  std::random_device rd;
  std::mt19937 gen(rd());
  return static_cast<int>(gen());
}

// memcpy mentioned in a comment only — no finding.
int ok_comment_mention(int x) { return x; }
