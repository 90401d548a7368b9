// Bench-side reporting helpers: paper-style tables with speedup columns and
// ASCII series plots for trend figures.

#ifndef FLEXMOE_HARNESS_REPORTERS_H_
#define FLEXMOE_HARNESS_REPORTERS_H_

#include <string>
#include <vector>

#include "harness/experiment.h"

namespace flexmoe {

/// \brief "1.72x" style rendering of a speedup factor.
std::string FormatSpeedup(double factor);

/// \brief One-line summary of a report. Serving-mode reports summarize
/// the SLO readouts (attainment, goodput, tail latencies, shed count)
/// instead of the training throughput fields.
std::string ReportLine(const ExperimentReport& r);

/// \brief ASCII line plot of one series (crude; for trend figures like
/// Fig. 3b in terminal output). Values are min-max normalized.
std::string AsciiSeries(const std::vector<double>& values, int width,
                        int height);

/// \brief Renders a descending-sorted CDF like paper Figure 3(a).
std::string AsciiCdf(const std::vector<double>& cdf, int width);

}  // namespace flexmoe

#endif  // FLEXMOE_HARNESS_REPORTERS_H_
