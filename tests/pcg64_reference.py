"""Pure-Python PCG64: the 128-bit LCG with XSL-RR output behind numpy's PCG64.random_raw.

Each word first steps the state, state = state * MULTIPLIER + inc mod 2^128,
then outputs the xor of the new state's two 64-bit halves rotated right by
its top six bits (O'Neill 2014, PCG-XSL-RR 128/64). It shares nothing with
numpy, so a test holding the two equal pins the raw stream the Monte Carlo
reproducibility contract rests on.
"""

MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128, _MASK64 = (1 << 128) - 1, (1 << 64) - 1


def raw_words(state: int, inc: int, count: int) -> list[int]:
    """The next `count` 64-bit outputs from the (state, inc) that numpy's PCG64.state reports."""
    words = []
    for _ in range(count):
        state = (state * MULTIPLIER + inc) & _MASK128
        folded, rotation = ((state >> 64) ^ state) & _MASK64, state >> 122
        words.append(((folded >> rotation) | (folded << (-rotation & 63))) & _MASK64)
    return words
