#ifndef ALID_DATA_NART_LIKE_H_
#define ALID_DATA_NART_LIKE_H_

#include <cstdint>

#include "data/labeled_data.h"

namespace alid {

/// Configuration of the NART-like news-article workload. The paper's NART
/// data set holds 5,301 crawled Sina news articles as 350-dimensional LDA
/// topic vectors: 13 hot events of 734 labeled articles total, plus 4,567
/// daily-news items that form no dominant cluster. We reproduce the same
/// shape synthetically in place of the crawled articles: each event is a
/// tight mixture over a few topics, daily news are diffuse mixtures.
struct NartLikeConfig {
  int num_events = 13;
  /// Total articles across all events (paper: 734; sizes vary per event).
  Index num_event_articles = 734;
  /// Background daily-news articles (paper: 4,567).
  Index num_noise_articles = 4567;
  int num_topics = 350;
  /// Topics active per event.
  int topics_per_event = 4;
  /// Topic-weight jitter within an event (smaller = tighter event cluster).
  double event_spread = 0.02;
  /// Active topics per noise article (diffuse).
  int topics_per_noise = 25;
  /// Daily-news articles are not i.i.d. uniform: they follow many weak
  /// recurring themes (sports results, weather, ...). Noise articles blend a
  /// theme from this pool with their own random mixture, giving the noise a
  /// multi-modal structure that never reaches dominant-cluster coherence.
  int noise_theme_pool = 60;
  /// Blend weight of the theme within a noise article (the rest is the
  /// article's own random mixture). Keep well below 1 so no theme becomes a
  /// dense subgraph.
  double noise_theme_weight = 0.45;
  /// Fraction of noise articles that are "event echoes": follow-up coverage
  /// reusing an event's topics at partial purity. Echoes sit near the event
  /// clusters' boundaries — the contamination that makes real crawled news
  /// hard for fixed-K partitioning at high noise degrees.
  double echo_fraction = 0.15;
  uint64_t seed = 42;
};

/// Generates the NART-like workload: L1-normalized topic vectors (LDA-style
/// probability vectors).
LabeledData MakeNartLike(const NartLikeConfig& config = {});

}  // namespace alid

#endif  // ALID_DATA_NART_LIKE_H_
