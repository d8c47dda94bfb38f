"""Character-loop reference for `align_generated_to_words`.

Each step's first non-space character is found by walking its normalized
text, and its owning word by scanning every generated word: the definition
the library's regex-and-bisect version must reproduce map for map.
"""

import re

from audiokv.trace import WordStepMap, _normalize_text


def align_generated_to_words(steps, words):
    pieces = []
    first_char_positions = []
    position = 0
    for step in steps:
        norm = _normalize_text(step.generated_token_text)
        first = None
        for k, ch in enumerate(norm):
            if not ch.isspace():
                first = position + k
                break
        pieces.append(norm)
        first_char_positions.append(first)
        position += len(norm)
    text = "".join(pieces)

    generated = [(m.start(), m.end(), m.group()) for m in re.finditer(r"\S+", text)]
    steps_per_word = [set() for _ in generated]
    for step_pos, first in enumerate(first_char_positions):
        if first is None:
            continue
        for g, (start, end, _) in enumerate(generated):
            if start <= first < end:
                steps_per_word[g].add(steps[step_pos].step_index)
                break

    entries = []
    cursor = 0
    for word_index, word in enumerate(words):
        target = _normalize_text(word.text).replace(" ", "")
        if not target:
            continue
        for g in range(cursor, len(generated)):
            if generated[g][2] == target:
                if steps_per_word[g]:
                    entries.append((word_index, frozenset(steps_per_word[g])))
                cursor = g + 1
                break
    return WordStepMap(entries=tuple(entries))
